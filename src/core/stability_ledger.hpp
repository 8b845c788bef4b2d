// StabilityLedger — the purge-debt stability ledger that garbage-collects
// the delivered history (§2.1, DESIGN.md §3/§7).
//
// Tracks this node's per-sender reception record, the purge debts announced
// by every sender, and the latest reception reports gossiped by the other
// members of the view.  A delivered message whose seq is at or below every
// member's reported mark is *stable*: it should never be needed by a t7
// flush again and is collected from the delivered history — which is also
// what keeps PRED messages and the agreed pred-view small.
//
// Reception is NOT contiguous under sender-side semantic purging: a sender
// may purge seq q out of a channel (its cover rides behind), so a raw
// reception high-water mark can jump a gap the receiver never got.  The
// scenario explorer found the resulting §3.2 violation (DESIGN.md §7): a
// high mark was read as proof of reception, a message was GC'd everywhere,
// and its only in-channel cover died with an excluded sender.  The ledger
// closes that race for *every* relation by making purges first-class wire
// facts instead of inferring them:
//
//   * a sender that semantically purges seq q from an outgoing buffer
//     records a per-view purge debt (q -> cover_seq) and gossips it
//     (record_own_debt / StabilityReport::debts);
//   * each receiver merges the sender's debts and anchor (the seq just
//     below the sender's first multicast of the view) and reconstructs
//     exact channel coverage: every seq at or below its **covered
//     frontier** is provably either received here or purged with a cover —
//     resolved through the debt chain q -> c -> ... -> f, covers compose
//     under the semantically transitive obsolescence order — that this
//     node received;
//   * the gossiped marks ARE those covered frontiers, so the classic
//     mark-based collection rule (seq <= every member's mark) is sound
//     unconditionally: a frontier never overstates what the §3.2
//     obligation can discharge.  No retained-cover insurance, no
//     per-relation GC policy.
//
// Debts themselves are collected once no one can still need them: a sender
// drops its own debt (q -> c) once every member's reported frontier passed
// q (the gossip then never has to explain q again), and a receiver drops a
// merged debt once its own frontier passed q — so the ledger stays bounded
// by the un-stable window and the gossip stays delta-sized.
//
// Two distinct local queries remain:
//
//   * received(sender, seq) — exact reception membership; what the t7
//     flush skip's first clause and any "was this consumed here?"
//     reasoning must use;
//   * high_water(sender)    — the FIFO channel's raw monotone frontier;
//     what duplicate suppression may use (a purged gap seq can never
//     arrive, so any arrival at or below it is a duplicate).  It is NOT
//     gossiped.
//
// The ledger owns the state and the stability arithmetic and produces the
// StabilityReport (take_delta / take_snapshot) that every carrier ships —
// gossip round, DATA piggyback, relayed row; the Node owns the gossip timer,
// the carriers and the wire traffic (it knows the network and the
// quiescence rules), and merges every incoming report through one path.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "core/message.hpp"
#include "core/types.hpp"
#include "net/types.hpp"

namespace svs::core {

class StabilityLedger {
 public:
  // -- reception record ---------------------------------------------------

  /// Records a reception (accepted, suppressed, or flushed-in) of `seq`
  /// from `sender`, advances the covered frontier it can explain, and
  /// marks the ledger dirty for the next gossip round when the reported
  /// state changed.  Idempotent.
  void note_seen(net::ProcessId sender, std::uint64_t seq);

  /// Exact reception query: was `seq` from `sender` received here in this
  /// view?  Sound under the reception gaps sender-side purging creates.
  [[nodiscard]] bool received(net::ProcessId sender, std::uint64_t seq) const;

  /// This node's raw reception high-water mark for `sender`, if any
  /// message was received.  On a FIFO channel every arrival at or below it
  /// is a duplicate (gap seqs were purged out of the channel and never
  /// arrive); it is NOT evidence that the seqs below it were received and
  /// is never gossiped.
  [[nodiscard]] std::optional<std::uint64_t> high_water(
      net::ProcessId sender) const;

  // -- purge-debt ledger --------------------------------------------------

  /// Installs `sender`'s per-view channel anchor (the seq just below its
  /// first multicast of the view, from its gossip — or from the local node
  /// for its own channel).  Constant per view; repeated calls must agree.
  /// Returns true when the anchor was news (first call for the channel).
  bool set_anchor(net::ProcessId sender, std::uint64_t anchor);

  /// Sender side: this node purged `seq` out of an outgoing buffer,
  /// justified by its own fresh message `cover_seq` (> seq).  Recorded
  /// once per seq (a multicast purges a victim from every buffer that
  /// still holds it in the same call); queued for the next gossip round.
  /// Returns true when the debt is new.
  bool record_own_debt(std::uint64_t seq, std::uint64_t cover_seq);

  /// Receiver side: merges debts announced by `sender` (union; debts are
  /// immutable facts) and re-advances the covered frontier they explain.
  /// Returns true when at least one debt was news.
  bool merge_debts(net::ProcessId sender, const StabilityReport::Debts& debts);

  /// True when the §3.2 obligation for (sender, seq) is already discharged
  /// at this node: the message was received, or a received message covers
  /// it through the debt chain.  What the t7 flush skip uses — strictly
  /// stronger than received(), still never skips an undischarged gap.
  [[nodiscard]] bool obligation_met(net::ProcessId sender,
                                    std::uint64_t seq) const;

  /// The covered frontier this node would report for `sender`, if its
  /// anchor is known: every seq at or below it is received here or
  /// debt-resolved to a received cover.
  [[nodiscard]] std::optional<std::uint64_t> frontier(
      net::ProcessId sender) const;

  // -- gossip -------------------------------------------------------------

  /// Snapshot of the local reception vector (covered frontiers), as
  /// gossiped to the peers.
  [[nodiscard]] StabilityReport::Seen snapshot() const;

  /// The entries whose reported frontier changed and the own debts
  /// recorded since the previous take_delta() (or since
  /// construction/reset) — what a gossip round actually needs to ship,
  /// because frontiers are monotone, merge_report is a per-entry max and
  /// debt merging is a union.  Clears the change sets and the dirty flag.
  [[nodiscard]] StabilityReport take_delta();

  /// Full variant of take_delta(): every frontier entry and every own debt
  /// still in the ledger.  Periodic full rounds make the delta gossip
  /// self-healing — a round dropped by a receiver (e.g. for a view
  /// mismatch during install skew) is repaired by the next full round.
  [[nodiscard]] StabilityReport take_snapshot();

  /// Number of senders with a reportable frontier (|snapshot()|, O(1)).
  [[nodiscard]] std::size_t tracked_senders() const { return reportable_; }

  /// Exact encoded size of the snapshot's (sender, frontier) entries and
  /// of the own-debt entries — what a full report would put on the wire
  /// (core::report_wire_size prices the section from these).  Maintained
  /// incrementally (O(1) per update), so the delta-gossip savings telemetry
  /// never materializes the snapshot it avoided sending.
  [[nodiscard]] std::size_t entry_wire_bytes() const {
    return entry_wire_bytes_;
  }
  [[nodiscard]] std::size_t debt_wire_bytes() const {
    return own_debt_wire_bytes_;
  }

  /// Own debts currently in the ledger / merged debts across all senders —
  /// the boundedness the tests assert (both shrink as covers stabilize).
  [[nodiscard]] std::size_t own_debts() const { return own_debts_.size(); }
  [[nodiscard]] std::size_t merged_debts() const {
    return merged_debt_count_;
  }

  /// Merges a peer's gossiped reception vector (frontiers are monotone).
  /// Returns true when at least one of the peer's frontiers advanced.
  bool merge_report(net::ProcessId from, const StabilityReport::Seen& seen);

  /// The latest reception vectors reported by (or relayed for) each peer —
  /// the relay source of relaying stability rounds (DESIGN.md §11): a
  /// relayed row for origin `o` re-ships exactly peer_reports()[o].
  [[nodiscard]] const std::map<net::ProcessId,
                               std::map<net::ProcessId, std::uint64_t>>&
  peer_reports() const {
    return peer_seen_;
  }

  /// The per-view channel anchor learned for `sender`, if any — relayed in
  /// rows so members that never heard the origin directly can still anchor
  /// its channel.
  [[nodiscard]] std::optional<std::uint64_t> channel_anchor(
      net::ProcessId sender) const {
    const auto it = channels_.find(sender);
    if (it == channels_.end()) return std::nullopt;
    return it->second.anchor;
  }

  /// Highest seq of `sender` known to be received-or-covered by every
  /// member of `view` (self included).  Any member that has not reported
  /// yet (or a crashed one whose reports stopped) holds the floor at zero
  /// — stability then waits for the view change that excludes it, as in a
  /// real group stack.
  [[nodiscard]] std::uint64_t floor_of(net::ProcessId sender, const View& view,
                                       net::ProcessId self) const;

  /// Debt GC: drops own debts whose seq every member's reported frontier
  /// passed (floor of this node's own channel) and merged debts below this
  /// node's own frontiers.  Returns the number of own debts collected.
  std::size_t collect_debts(const View& view, net::ProcessId self);

  /// True when the reported state changed since the last gossip (the
  /// gossip quiesces when nothing new happened, so idle groups go silent).
  [[nodiscard]] bool dirty() const { return dirty_; }
  void clear_dirty() { dirty_ = false; }

  /// Install-time reset: reception marks, anchors and debts are per-view.
  void reset();

 private:
  // Per-sender channel state for the current view.
  //
  // The exact reception set is compressed as (base, contiguous floor,
  // sparse tail): every seq in [base, floor] was received, plus the sparse
  // set outside it.  Gap-free reception — the common case — only advances
  // `floor`, O(1); a flush-in can close a gap and re-absorb the sparse
  // tail.  `high` is the raw monotone frontier used for duplicate
  // detection only.
  //
  // `explained` is the covered frontier: valid once `anchor` is known,
  // starts there, and advances over seqs that are received or
  // debt-resolved to a received cover.  `debts` holds the sender's merged
  // announcements (q -> cover), pruned as `explained` passes them.
  struct Channel {
    bool any_received = false;
    std::uint64_t base = 0;
    std::uint64_t floor = 0;
    std::uint64_t high = 0;
    std::set<std::uint64_t> sparse;

    std::optional<std::uint64_t> anchor;
    std::uint64_t explained = 0;
    std::map<std::uint64_t, std::uint64_t> debts;

    [[nodiscard]] bool has(std::uint64_t seq) const {
      return any_received &&
             ((seq >= base && seq <= floor) || sparse.contains(seq));
    }
    /// True when some link of the debt chain starting at `seq` was
    /// received here — the first received cover discharges the obligation
    /// (later links only matter for peers that missed this one too).
    [[nodiscard]] bool chain_cover_received(std::uint64_t seq) const {
      auto it = debts.find(seq);
      while (it != debts.end()) {
        if (has(it->second)) return true;
        it = debts.find(it->second);
      }
      return false;
    }
  };

  void record_reception(Channel& channel, std::uint64_t seq);
  /// Advances `explained` and refreshes the reported entry/bookkeeping.
  void advance_frontier(net::ProcessId sender, Channel& channel);

  std::map<net::ProcessId, Channel> channels_;
  // Latest reception vectors reported by the other members.
  std::map<net::ProcessId, std::map<net::ProcessId, std::uint64_t>> peer_seen_;
  // Senders whose reported frontier changed since the last take_delta().
  std::set<net::ProcessId> changed_;
  std::size_t reportable_ = 0;  // channels with a known anchor
  std::size_t merged_debt_count_ = 0;  // debts across all channels_, O(1)
  // This node's own purge debts (it is the channel sender), the subset not
  // yet shipped, and the exact encoded bytes of the full set.
  std::map<std::uint64_t, std::uint64_t> own_debts_;
  std::set<std::uint64_t> own_debts_unshipped_;
  std::size_t own_debt_wire_bytes_ = 0;
  // Exact encoded bytes of the snapshot's (sender, frontier) entries.
  std::size_t entry_wire_bytes_ = 0;
  bool dirty_ = false;
};

}  // namespace svs::core
