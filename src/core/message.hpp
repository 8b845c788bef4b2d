// Protocol messages of Figure 1: DATA, INIT, PRED — plus the consensus
// proposal value (the (next-view, pred-view) pair of t7) and the Delivery
// variant handed to the application.  VIEW notifications are local control
// entries in the delivery queue, not wire messages.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "consensus/value.hpp"
#include "core/types.hpp"
#include "net/message.hpp"
#include "obs/annotation.hpp"
#include "obs/relation.hpp"
#include "util/bytes.hpp"

namespace svs::core {

/// Application payload carried by a DATA message.  Opaque to the protocol.
class Payload {
 public:
  Payload() = default;
  Payload(const Payload&) = delete;
  Payload& operator=(const Payload&) = delete;
  virtual ~Payload() = default;

  /// Exact number of bytes this payload's codec writes (net/codec.cpp
  /// asserts the equality at every encode).  Kind-0 payloads are encoded
  /// as `wire_size()` filler bytes.
  [[nodiscard]] virtual std::size_t wire_size() const = 0;

  /// Application-level decode tag (the data-lane analogue of
  /// net::MessageType, so consumers dispatch without RTTI).  0 is reserved
  /// for opaque payloads; workload::ItemOp is the one other kind the codec
  /// knows (net/codec.hpp), and any other kind cannot be encoded.
  [[nodiscard]] virtual std::uint32_t payload_kind() const { return 0; }
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Size-preserving stand-in produced when a kind-0 (opaque) payload is
/// decoded from the wire: the bytes are not interpretable, but the wire
/// cost is, so byte accounting stays exact across a codec round trip.
class OpaquePayload final : public Payload {
 public:
  explicit OpaquePayload(std::size_t encoded_size) : size_(encoded_size) {}
  [[nodiscard]] std::size_t wire_size() const override { return size_; }

 private:
  std::size_t size_;
};

/// One per-view purge debt of the gossiping sender's own channel: it
/// semantically purged `seq` out of at least one outgoing buffer, and the
/// message that justified the purge (its declared cover) carries
/// `cover_seq`.  Covers are the just-multicast message, so cover_seq > seq
/// always — the wire encodes the positive gap.
struct PurgeDebt {
  std::uint64_t seq = 0;
  std::uint64_t cover_seq = 0;

  friend bool operator==(const PurgeDebt&, const PurgeDebt&) = default;
};

/// Exact encoded sizes of one debt entry (seq, then the positive cover
/// gap), one frontier entry, and a report section from its aggregates.
/// Messages are not sized with these — wire_size() runs the encoder — they
/// price report bytes no single encode yields: the full snapshot a delta
/// gossip round avoided (gossip_bytes_saved, from aggregates StabilityLedger
/// keeps incrementally) and the debt bytes a round shipped
/// (NodeStats::debt_bytes_gossiped).  codec_test pins them to the encoder.
[[nodiscard]] inline std::size_t purge_debt_wire_size(const PurgeDebt& debt) {
  return util::varint_size(debt.seq) +
         util::varint_size(debt.cover_seq - debt.seq);
}

[[nodiscard]] inline std::size_t frontier_entry_wire_size(
    net::ProcessId sender, std::uint64_t frontier) {
  return util::varint_size(sender.value()) + util::varint_size(frontier);
}

[[nodiscard]] inline std::size_t report_wire_size(std::size_t entries,
                                                  std::size_t entry_bytes,
                                                  std::size_t debts,
                                                  std::size_t debt_bytes) {
  return util::varint_size(entries) + entry_bytes + util::varint_size(debts) +
         debt_bytes;
}

/// A member's stability report (§2.1, DESIGN.md §3/§7) — the one section
/// every stability carrier ships: a gossip round (StabilityMessage), a
/// piggyback on DATA (StabilityPiggyback) and a relayed row
/// (StabilityMessage::Row).  Each carrier adds only its own header.
///
///   * `seen` — per-sender *covered frontiers*: the largest seq below which
///     every message of that channel is provably received here or purged
///     with a received cover (the StabilityLedger reconstructs this from
///     its exact reception set plus the merged debts).  A message is stable
///     once every member's frontier passed it;
///   * `debts` — delta (or, on full rounds, the complete current set) of
///     the reporting member's own purge debts, strictly ascending by seq.
///
/// Merging a report is idempotent and commutative (per-entry max, debt
/// union), so the carrier and the arrival order never matter.
struct StabilityReport {
  using Seen = std::vector<std::pair<net::ProcessId, std::uint64_t>>;
  using Debts = std::vector<PurgeDebt>;

  Seen seen;
  Debts debts;

  friend bool operator==(const StabilityReport&,
                         const StabilityReport&) = default;
};

/// Exact encoded size of `report`'s section (report_wire_size above,
/// summed entry by entry).
[[nodiscard]] inline std::size_t report_wire_size(
    const StabilityReport& report) {
  std::size_t entry_bytes = 0;
  for (const auto& [sender, frontier] : report.seen) {
    entry_bytes += frontier_entry_wire_size(sender, frontier);
  }
  std::size_t debt_bytes = 0;
  for (const auto& debt : report.debts) {
    debt_bytes += purge_debt_wire_size(debt);
  }
  return report_wire_size(report.seen.size(), entry_bytes,
                          report.debts.size(), debt_bytes);
}

/// Optional stability section piggybacked on an outgoing DATA message: the
/// sender's per-view anchor and its report delta since its last gossip or
/// piggyback.  A group under traffic spreads stability knowledge through
/// these sections, so the standalone gossip lane can stay quiescent
/// (DESIGN.md §10).
struct StabilityPiggyback {
  std::uint64_t anchor = 0;
  StabilityReport report;

  friend bool operator==(const StabilityPiggyback&,
                         const StabilityPiggyback&) = default;
};

/// [DATA, v, d] — an application message tagged with the view it was sent
/// in, carrying its obsolescence annotation.
class DataMessage final : public net::Message {
 public:
  DataMessage(net::ProcessId sender, std::uint64_t seq, ViewId view,
              obs::Annotation annotation, PayloadPtr payload)
      : net::Message(net::MessageType::data, seq),
        sender_(sender),
        seq_(seq),
        view_(view),
        annotation_(std::move(annotation)),
        payload_(std::move(payload)) {}

  [[nodiscard]] net::ProcessId sender() const { return sender_; }
  [[nodiscard]] std::uint64_t seq() const { return seq_; }
  [[nodiscard]] MsgId id() const { return MsgId{sender_, seq_}; }
  [[nodiscard]] ViewId view() const { return view_; }
  [[nodiscard]] const obs::Annotation& annotation() const {
    return annotation_;
  }
  [[nodiscard]] const PayloadPtr& payload() const { return payload_; }

  /// This message as seen by a Relation oracle.
  [[nodiscard]] obs::MessageRef ref() const {
    return obs::MessageRef{sender_, seq_, &annotation_};
  }

  /// Optional piggybacked stability section (nullopt when absent).
  [[nodiscard]] const std::optional<StabilityPiggyback>& piggyback() const {
    return piggyback_;
  }

  /// Attaches a stability section.  Must happen before the message is first
  /// encoded or sized (net::Message caches wire_size and the encoded frame
  /// lazily); Node::multicast attaches post-commit, pre-send, which is
  /// before either cache exists.
  void set_piggyback(StabilityPiggyback piggyback) {
    piggyback_ = std::move(piggyback);
  }

 private:
  net::ProcessId sender_;
  std::uint64_t seq_;
  ViewId view_;
  obs::Annotation annotation_;
  PayloadPtr payload_;
  std::optional<StabilityPiggyback> piggyback_;
};

using DataMessagePtr = std::shared_ptr<const DataMessage>;

/// [INIT, v, l] — starts the view change that removes the processes in l.
class InitMessage final : public net::Message {
 public:
  InitMessage(ViewId view, std::vector<net::ProcessId> leave)
      : net::Message(net::MessageType::init),
        view_(view),
        leave_(std::move(leave)) {}

  [[nodiscard]] ViewId view() const { return view_; }
  [[nodiscard]] const std::vector<net::ProcessId>& leave() const {
    return leave_;
  }

 private:
  ViewId view_;
  std::vector<net::ProcessId> leave_;
};

/// [PRED, v, P] — the sequence of messages this process accepted to deliver
/// in view v.  Carries whole messages: the agreed pred-view is re-delivered
/// ("flushed") to members that miss some of them.
class PredMessage final : public net::Message {
 public:
  PredMessage(ViewId view, std::vector<DataMessagePtr> accepted)
      : net::Message(net::MessageType::pred),
        view_(view),
        accepted_(std::move(accepted)) {}

  [[nodiscard]] ViewId view() const { return view_; }
  [[nodiscard]] const std::vector<DataMessagePtr>& accepted() const {
    return accepted_;
  }

 private:
  ViewId view_;
  std::vector<DataMessagePtr> accepted_;
};

/// Periodic stability gossip (§2.1): a member's report (StabilityReport)
/// for view `view`, headed by its `anchor` — the seq just below its first
/// multicast of the view (its own channel's per-view epoch start;
/// receivers anchor the frontier there, so a purged *first* message of the
/// view is still accounted).  Nodes exchange these so the stable prefix of
/// the delivered history can be garbage-collected — which is also what
/// keeps the PRED messages and the agreed pred-view small.
///
/// A round goes to the sender's successors in the view: every other member
/// below 16 members, two ring successors at or above (DESIGN.md §11).  On
/// the ring a round also carries the `relayed` rows — other origins'
/// rounds as best known by the sender — so knowledge spreads in hops.  A
/// row is exactly the content of its origin's own round, so a receiver
/// merges it as if that round had arrived directly; every merge is an
/// idempotent, commutative max/union, which makes multi-hop relaying sound
/// in any arrival order.  The wire tag follows from the rows:
/// MessageType::stability without, MessageType::stability_digest with.
class StabilityMessage final : public net::Message {
 public:
  /// One origin's round as best known by the relayer.  The anchor is
  /// optional: a relayer can usefully forward an origin's frontier report
  /// before it has learned that origin's channel anchor.
  struct Row {
    net::ProcessId origin;
    std::optional<std::uint64_t> anchor;
    StabilityReport report;

    friend bool operator==(const Row&, const Row&) = default;
  };
  using Rows = std::vector<Row>;

  StabilityMessage(ViewId view, std::uint64_t anchor, StabilityReport report,
                   Rows relayed = {})
      : net::Message(relayed.empty() ? net::MessageType::stability
                                     : net::MessageType::stability_digest),
        view_(view),
        anchor_(anchor),
        report_(std::move(report)),
        relayed_(std::move(relayed)) {}

  [[nodiscard]] ViewId view() const { return view_; }
  [[nodiscard]] std::uint64_t anchor() const { return anchor_; }
  [[nodiscard]] const StabilityReport& report() const { return report_; }
  [[nodiscard]] const Rows& relayed() const { return relayed_; }

 private:
  ViewId view_;
  std::uint64_t anchor_;
  StabilityReport report_;
  Rows relayed_;
};

/// The value decided by consensus at t7: (next-view, pred-view).
class ProposalValue final : public consensus::ValueBase {
 public:
  /// consensus::ValueBase::value_kind claimed by ProposalValue.
  static constexpr std::uint32_t kValueKind = 1;

  ProposalValue(View next_view, std::vector<DataMessagePtr> pred_view)
      : next_view_(std::move(next_view)), pred_view_(std::move(pred_view)) {}

  [[nodiscard]] const View& next_view() const { return next_view_; }
  [[nodiscard]] const std::vector<DataMessagePtr>& pred_view() const {
    return pred_view_;
  }

  [[nodiscard]] std::size_t wire_size() const override {
    // view id + member count + member ids, pred count + full data-message
    // encodings — exactly what the value codec writes.
    std::size_t n = util::varint_size(next_view_.id().value()) +
                    util::varint_size(next_view_.size());
    for (const auto p : next_view_.members()) n += util::varint_size(p.value());
    n += util::varint_size(pred_view_.size());
    for (const auto& m : pred_view_) n += m->wire_size();
    return n;
  }

  [[nodiscard]] std::uint32_t value_kind() const override {
    return kValueKind;
  }

 private:
  View next_view_;
  std::vector<DataMessagePtr> pred_view_;
};

/// What the application obtains from the delivery queue (down-call style,
/// §3.2): data, a view notification, or notice of its own exclusion.
struct DataDelivery {
  DataMessagePtr message;
};
struct ViewDelivery {
  View view;
};
struct ExclusionDelivery {
  ViewId last_view;  // the view this process was a member of last
};

using Delivery = std::variant<DataDelivery, ViewDelivery, ExclusionDelivery>;

}  // namespace svs::core
