// Obsolescence relation oracles.
//
// §3.2: the relation '≺' is an irreflexive partial order on messages; the
// protocol only ever asks "does newer make older obsolete?".  Relation
// implementations answer that from the messages' sender/sequence identity
// and their annotations.  covers() must return the *strict transitive*
// relation (m ≺ m'), i.e. implementations answer for the transitive closure;
// the provided representations achieve this because producers encode
// closures into the annotations (see batch.hpp and the paper's §4.2 note on
// preserving transitivity).
//
// Obsolescence is per-sender: each of §4.2's representations (item tags,
// enumeration, k-enumeration) relates a message only to earlier messages of
// its own sender, and every Relation here keeps that contract (see
// covers()).  The protocol relies on it: the delivery queue and the
// outgoing buffers scan only the covering message's own sender, within
// [coverage_floor, seq).
//
// The same-view restriction of Figure 1's purge function is enforced by the
// protocol (core/), not here.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <utility>

#include "net/types.hpp"
#include "obs/annotation.hpp"

namespace svs::obs {

/// Identity + annotation of a message as seen by a relation.
struct MessageRef {
  net::ProcessId sender;
  std::uint64_t seq = 0;
  const Annotation* annotation = nullptr;  // never null when passed to covers
};

/// Oracle for the obsolescence partial order.
class Relation {
 public:
  Relation() = default;
  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  virtual ~Relation() = default;

  /// True iff `older ≺ newer` (strict).  Implementations must be
  /// irreflexive and antisymmetric by construction and transitive given
  /// closure-carrying annotations.  Contract: when it returns true, both
  /// messages have the same sender and `newer` has the higher seq.
  [[nodiscard]] virtual bool covers(const MessageRef& newer,
                                    const MessageRef& older) const = 0;

  /// Lowest same-sender sequence number `newer` can possibly cover — the
  /// fast path through the representations (DESIGN.md §2): an indexed
  /// purge only visits seqs in [coverage_floor(newer), newer.seq) instead
  /// of every entry of the sender.  Must be conservative (may
  /// under-estimate, never over-estimate); the default claims the whole
  /// prefix.
  [[nodiscard]] virtual std::uint64_t coverage_floor(
      const MessageRef& newer) const {
    (void)newer;
    return 0;
  }

  /// Human-readable name for reports.
  [[nodiscard]] virtual const char* name() const = 0;
};

using RelationPtr = std::shared_ptr<const Relation>;

/// The empty relation: nothing is ever obsolete.  With it, SVS reduces to
/// conventional View Synchrony (§3.2: "If no messages m, m' exist such that
/// m ≺ m', SVS reduces to conventional VS") — this is the paper's
/// "reliable" baseline.
class EmptyRelation final : public Relation {
 public:
  [[nodiscard]] bool covers(const MessageRef&,
                            const MessageRef&) const override {
    return false;
  }
  [[nodiscard]] std::uint64_t coverage_floor(
      const MessageRef& newer) const override {
    return newer.seq;  // covers nothing: the scan range is empty
  }
  [[nodiscard]] const char* name() const override { return "reliable"; }
};

/// Item tagging (§4.2): same sender + same tag, higher sequence wins.
class ItemTagRelation final : public Relation {
 public:
  [[nodiscard]] bool covers(const MessageRef& newer,
                            const MessageRef& older) const override;
  [[nodiscard]] const char* name() const override { return "item-tag"; }
};

/// Message enumeration (§4.2): the newer message explicitly lists the
/// sequence numbers (same sender) it obsoletes.
class EnumerationRelation final : public Relation {
 public:
  [[nodiscard]] bool covers(const MessageRef& newer,
                            const MessageRef& older) const override;
  [[nodiscard]] std::uint64_t coverage_floor(
      const MessageRef& newer) const override;
  [[nodiscard]] const char* name() const override { return "enumeration"; }
};

/// k-enumeration (§4.2): "m ⊑ m' if m'.sn − k <= m.sn < m'.sn and
/// m'.bm[m'.sn − m.sn]".
class KEnumRelation final : public Relation {
 public:
  [[nodiscard]] bool covers(const MessageRef& newer,
                            const MessageRef& older) const override;
  [[nodiscard]] std::uint64_t coverage_floor(
      const MessageRef& newer) const override;
  [[nodiscard]] const char* name() const override { return "k-enumeration"; }
};

/// Test helper: an arbitrary, explicitly constructed partial order over
/// (sender, seq) pairs.  add() inserts an edge and maintains the transitive
/// closure; it rejects edges that break the per-sender contract (a
/// different sender, or a newer seq that is not higher), which also keeps
/// the relation a strict partial order.
class ExplicitRelation final : public Relation {
 public:
  using Key = std::pair<std::uint32_t, std::uint64_t>;  // (sender raw, seq)

  void add(net::ProcessId obsolete_sender, std::uint64_t obsolete_seq,
           net::ProcessId newer_sender, std::uint64_t newer_seq);

  [[nodiscard]] bool covers(const MessageRef& newer,
                            const MessageRef& older) const override;
  [[nodiscard]] const char* name() const override { return "explicit"; }

 private:
  [[nodiscard]] bool has_edge(const Key& older, const Key& newer) const;

  std::set<std::pair<Key, Key>> edges_;  // (older, newer), closed
};

}  // namespace svs::obs
