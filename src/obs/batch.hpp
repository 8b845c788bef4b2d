// Producer-side composition of obsolescence annotations for composite
// (multi-item) updates — §4.1 and Figure 2.
//
// A composite update (e.g. one game round) is split into a batch of
// single-item update messages terminated by a commit; "the role of the
// commit message can be performed by the last message in each update".
// Receivers apply a batch atomically when its commit arrives (FIFO order
// guarantees the batch precedes it).  Obsolescence rules:
//
//   * plain (non-final) update messages never obsolete anything — "only the
//     commit messages, and not the individual updates, can make messages
//     from previous batches obsolete";
//   * the commit declares obsolete, for every item the batch updates, that
//     item's previous update message — Figure 2: C(2) makes U(b,1) obsolete,
//     not U(b,2);
//   * a message that itself carried a commit for a multi-item batch B may
//     only be declared obsolete by a commit whose batch is a superset of B
//     ("we only have m ⊑ m' if the set of items updated by m' is a super-set
//     of the items updated by m") — otherwise purging the carrier would
//     break the atomic application of B's surviving updates.  Singleton
//     batches degenerate to plain single-item semantics;
//   * transitive closure is folded into the annotation (k-enum: shift/OR of
//     the predecessor's bitmap; enumeration: union of its list), so the
//     relation oracles can answer ⊑ with a single lookup.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "obs/annotation.hpp"
#include "obs/kbitmap.hpp"

namespace svs::obs {

class BatchComposer {
 public:
  struct Config {
    /// Representation produced for commit messages; plain updates always
    /// carry Annotation::none().  item_tag is only valid for streams of
    /// singleton batches (§4.2: tagging "cannot be easily extended to
    /// applications that use multi-item composite updates").
    AnnotationKind representation = AnnotationKind::k_enum;
    /// k-enum bitmap horizon (paper: "k equal to twice the buffer size").
    std::size_t k = 32;
    /// Enumerations drop seqs further than this behind the commit
    /// (0 = unbounded) — the paper's "only the recent messages from the
    /// enumeration need to be carried" optimisation.
    std::uint64_t enumeration_window = 0;
  };

  explicit BatchComposer(Config config);

  /// Starts a new composite update.  No batch may be in progress.
  void begin();

  /// Declares that the current batch updates `item` (idempotent).
  void add_item(std::uint64_t item);

  /// Records the sequence number the protocol assigned to the batch's
  /// update of `item` (call right after multicasting it).
  void note_update_seq(std::uint64_t item, std::uint64_t seq);

  /// Finishes the batch: computes the commit-carrier's annotation given the
  /// sequence number it will be multicast with.  `carrier_item` is the item
  /// whose update doubles as the commit (must be in the batch; every other
  /// batch item must have a noted seq < commit_seq).
  Annotation commit(std::uint64_t commit_seq, std::uint64_t carrier_item);

  /// Single-message convenience: a singleton batch in one call.
  Annotation single(std::uint64_t item, std::uint64_t seq);

  [[nodiscard]] const Config& config() const { return config_; }

 private:
  struct ItemRecord {
    std::uint64_t seq = 0;
    KBitmap closure{0};                     // for k_enum
    std::vector<std::uint64_t> enum_closure;  // for enumeration (sorted)
    bool multi_carrier = false;  // carried a commit for a multi-item batch
    std::set<std::uint64_t> batch_items;  // that batch's items (if carrier)
  };

  Config config_;
  bool in_batch_ = false;
  std::set<std::uint64_t> batch_items_;
  std::unordered_map<std::uint64_t, std::uint64_t> noted_seqs_;
  std::unordered_map<std::uint64_t, ItemRecord> last_;
};

}  // namespace svs::obs
