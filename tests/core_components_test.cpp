// Unit tests for the extracted protocol components: StabilityLedger (the
// §2.1 gossip GC arithmetic plus the purge-debt ledger of DESIGN.md §3/§7)
// and ViewChangeEngine (the t4–t7 bookkeeping).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "core/stability_ledger.hpp"
#include "core/view_change_engine.hpp"
#include "fd/failure_detector.hpp"
#include "obs/annotation.hpp"

namespace svs::core {
namespace {

net::ProcessId pid(std::uint32_t i) { return net::ProcessId(i); }

View view3() { return View(ViewId(0), {pid(0), pid(1), pid(2)}); }

DataMessagePtr msg(std::uint32_t sender, std::uint64_t seq) {
  return std::make_shared<DataMessage>(pid(sender), seq, ViewId(0),
                                       obs::Annotation::none(), nullptr);
}

class StubDetector final : public fd::FailureDetector {
 public:
  [[nodiscard]] bool suspects(net::ProcessId p) const override {
    return suspected.contains(p);
  }
  std::set<net::ProcessId> suspected;
};

constexpr sim::Duration kPredGrace = sim::Duration::millis(30);

/// ready_to_propose at a time when any suspected member's pred grace has
/// already run out (the pre-grace behaviour most tests want).
bool ready_after_grace(const ViewChangeEngine& e, const View& v,
                       const fd::FailureDetector& fd) {
  return e.ready_to_propose(v, fd, e.started_at() + kPredGrace, kPredGrace);
}

// ---------------------------------------------------------------------------
// StabilityLedger
// ---------------------------------------------------------------------------

// Most tests speak from process 0's perspective; channels only become
// reportable (and only count towards floors) once their per-view anchor is
// known, so the helpers install anchor 0 ("the view's seqs start at 1").
TEST(StabilityLedger, FrontierFollowsContiguousReception) {
  StabilityLedger t;
  t.set_anchor(pid(1), 0);
  EXPECT_EQ(t.frontier(pid(1)), 0u);
  t.note_seen(pid(1), 1);
  t.note_seen(pid(1), 2);
  EXPECT_EQ(t.frontier(pid(1)), 2u);
  EXPECT_EQ(t.high_water(pid(1)), 2u);
  EXPECT_TRUE(t.dirty());
  t.clear_dirty();
  EXPECT_FALSE(t.dirty());
}

TEST(StabilityLedger, FrontierStallsAtAnUnexplainedGap) {
  // Sender-side purging removes seqs from a channel, so reception is not
  // contiguous.  Without a debt explaining the gap, the reported frontier
  // must NOT pass it — this is exactly what made the raw high-water mark
  // unsound (DESIGN.md section 7).
  StabilityLedger t;
  t.set_anchor(pid(1), 0);
  t.note_seen(pid(1), 1);
  t.note_seen(pid(1), 3);  // 2 never arrived; no debt announced (yet)
  EXPECT_EQ(t.frontier(pid(1)), 1u);
  EXPECT_EQ(t.high_water(pid(1)), 3u);  // raw mark still jumps (dups only)
  EXPECT_FALSE(t.received(pid(1), 2));
  EXPECT_TRUE(t.received(pid(1), 3));
}

TEST(StabilityLedger, DebtWithReceivedCoverExplainsTheGap) {
  StabilityLedger t;
  t.set_anchor(pid(1), 0);
  t.note_seen(pid(1), 1);
  t.note_seen(pid(1), 3);
  EXPECT_EQ(t.frontier(pid(1)), 1u);
  // The sender announces: 2 was purged, covered by 3 — which is here.
  t.merge_debts(pid(1), {{PurgeDebt{2, 3}}});
  EXPECT_EQ(t.frontier(pid(1)), 3u);
  EXPECT_FALSE(t.received(pid(1), 2));      // exact reception unchanged
  EXPECT_TRUE(t.obligation_met(pid(1), 2));  // but the obligation is met
}

TEST(StabilityLedger, DebtChainsResolveThroughPurgedCovers) {
  // 1 was purged by 3, 3 itself by 5: the chain 1 -> 3 -> 5 must resolve to
  // a *received* terminal cover before the gap counts as explained — the
  // k-enumeration case where no single annotation can declare 5 covers 1.
  StabilityLedger t;
  t.set_anchor(pid(1), 0);
  t.merge_debts(pid(1), {{PurgeDebt{1, 3}, PurgeDebt{3, 5}}});
  EXPECT_EQ(t.frontier(pid(1)), 0u);  // terminal cover not received yet
  EXPECT_FALSE(t.obligation_met(pid(1), 1));
  t.note_seen(pid(1), 2);
  EXPECT_EQ(t.frontier(pid(1)), 0u);  // 2 alone does not explain 1
  t.note_seen(pid(1), 5);
  // 1 resolves via 3 -> 5 (received), 2 and 3 likewise — but 4 has neither
  // a debt nor a reception, so the frontier stops just before it.
  EXPECT_EQ(t.frontier(pid(1)), 3u);
  EXPECT_TRUE(t.obligation_met(pid(1), 1));
  EXPECT_FALSE(t.obligation_met(pid(1), 4));
  t.note_seen(pid(1), 4);
  EXPECT_EQ(t.frontier(pid(1)), 5u);
}

TEST(StabilityLedger, ReceivedIntermediateCoverDischargesTheChain) {
  // The chain 1 -> 3 -> 5 need not reach its end: a receiver that holds
  // the intermediate cover 3 already has a ground-truth cover of 1, even
  // while 5 (which purged 3 out of someone else's buffer) is still in
  // flight.  The frontier must not stall on later links.
  StabilityLedger t;
  t.set_anchor(pid(1), 0);
  t.merge_debts(pid(1), {{PurgeDebt{1, 3}, PurgeDebt{3, 5}}});
  t.note_seen(pid(1), 2);
  t.note_seen(pid(1), 3);
  EXPECT_EQ(t.frontier(pid(1)), 3u);  // 1 via received 3; 2, 3 received
  EXPECT_TRUE(t.obligation_met(pid(1), 1));
}

TEST(StabilityLedger, FrontierStopsAtGapWithoutDebt) {
  StabilityLedger t;
  t.set_anchor(pid(1), 0);
  // One multicast (seq 3) purged both 1 and 2: two debts, one cover.
  t.merge_debts(pid(1), {{PurgeDebt{1, 3}, PurgeDebt{2, 3}}});
  t.note_seen(pid(1), 3);
  t.note_seen(pid(1), 5);  // 4 unexplained
  EXPECT_EQ(t.frontier(pid(1)), 3u);
  EXPECT_TRUE(t.obligation_met(pid(1), 1));   // covered via the debt
  EXPECT_FALSE(t.obligation_met(pid(1), 4));  // a genuinely open gap
  EXPECT_TRUE(t.obligation_met(pid(1), 5));   // received
}

TEST(StabilityLedger, AnchorPlacesTheViewsFirstSeqs) {
  // In later views a sender's seqs start far above 1.  The anchor tells
  // receivers where, so a purged *first* message of the view is still
  // accounted instead of silently skipped.
  StabilityLedger t;
  t.note_seen(pid(1), 8);          // first reception, anchor still unknown
  EXPECT_FALSE(t.frontier(pid(1)).has_value());
  t.set_anchor(pid(1), 6);         // the view's seqs are 7, 8, ...
  EXPECT_EQ(t.frontier(pid(1)), 6u);  // 7 is a gap, not prior-view noise
  t.merge_debts(pid(1), {{PurgeDebt{7, 8}}});
  EXPECT_EQ(t.frontier(pid(1)), 8u);
}

TEST(StabilityLedger, FloorIsZeroUntilEveryMemberReports) {
  StabilityLedger t;
  t.set_anchor(pid(0), 0);
  for (std::uint64_t s = 1; s <= 10; ++s) t.note_seen(pid(0), s);
  // Only peer 1 reported; peer 2 silent -> nothing is stable.
  t.merge_report(pid(1), {{pid(0), 10}});
  EXPECT_EQ(t.floor_of(pid(0), view3(), pid(0)), 0u);
  // Peer 2 answers: the floor is the minimum over all members.
  t.merge_report(pid(2), {{pid(0), 7}});
  EXPECT_EQ(t.floor_of(pid(0), view3(), pid(0)), 7u);
}

TEST(StabilityLedger, FloorBoundedByOwnFrontier) {
  StabilityLedger t;
  t.set_anchor(pid(0), 0);
  for (std::uint64_t s = 1; s <= 4; ++s) t.note_seen(pid(0), s);
  t.merge_report(pid(1), {{pid(0), 9}});
  t.merge_report(pid(2), {{pid(0), 9}});
  EXPECT_EQ(t.floor_of(pid(0), view3(), pid(0)), 4u);
}

TEST(StabilityLedger, PeerReportsAreMonotone) {
  StabilityLedger t;
  t.set_anchor(pid(0), 0);
  for (std::uint64_t s = 1; s <= 9; ++s) t.note_seen(pid(0), s);
  t.merge_report(pid(1), {{pid(0), 8}});
  t.merge_report(pid(1), {{pid(0), 2}});  // stale gossip must not regress
  t.merge_report(pid(2), {{pid(0), 8}});
  EXPECT_EQ(t.floor_of(pid(0), view3(), pid(0)), 8u);
}

TEST(StabilityLedger, TakeDeltaShipsOnlyChangedFrontiersAndFreshDebts) {
  StabilityLedger t;
  t.set_anchor(pid(0), 0);
  t.set_anchor(pid(1), 0);
  t.note_seen(pid(0), 1);
  t.note_seen(pid(0), 2);
  t.note_seen(pid(0), 3);
  t.note_seen(pid(1), 1);
  EXPECT_TRUE(t.record_own_debt(4, 6));
  EXPECT_FALSE(t.record_own_debt(4, 6));  // idempotent per purged seq
  // First take: everything is new, so the delta is the full state.
  const auto first = t.take_delta();
  EXPECT_EQ(first.seen.size(), 2u);
  ASSERT_EQ(first.debts.size(), 1u);
  EXPECT_EQ(first.debts[0], (PurgeDebt{4, 6}));
  EXPECT_FALSE(t.dirty());

  t.note_seen(pid(0), 4);
  const auto second = t.take_delta();
  ASSERT_EQ(second.seen.size(), 1u);
  EXPECT_EQ(second.seen[0].first, pid(0));
  EXPECT_EQ(second.seen[0].second, 4u);
  EXPECT_TRUE(second.debts.empty());  // already shipped

  // A reception that does not move the frontier changes nothing on the
  // wire and owes no gossip round.
  t.note_seen(pid(1), 1);
  EXPECT_FALSE(t.dirty());
  EXPECT_TRUE(t.take_delta().seen.empty());
}

TEST(StabilityLedger, TakeSnapshotShipsEverythingAndClearsChanges) {
  StabilityLedger t;
  t.set_anchor(pid(0), 0);
  t.set_anchor(pid(1), 0);
  t.note_seen(pid(0), 1);
  (void)t.take_delta();
  t.note_seen(pid(1), 1);
  t.record_own_debt(2, 3);
  (void)t.take_delta();
  // A full round repeats unchanged entries and the entire surviving debt
  // ledger (self-healing for dropped deltas).
  t.note_seen(pid(1), 2);
  const auto snap = t.take_snapshot();
  EXPECT_EQ(snap.seen.size(), 2u);
  ASSERT_EQ(snap.debts.size(), 1u);
  EXPECT_EQ(snap.debts[0], (PurgeDebt{2, 3}));
  EXPECT_FALSE(t.dirty());
  t.note_seen(pid(1), 2);  // no frontier move
  EXPECT_TRUE(t.take_delta().seen.empty());
}

TEST(StabilityLedger, WireByteCountersTrackTheMaterializedSnapshot) {
  // The incrementally maintained entry/debt byte counters must always
  // equal the encoded size of the materialized snapshot's sections — they
  // are what the delta-gossip savings credit prices full rounds with.
  StabilityLedger t;
  const auto reference_entries = [&t] {
    std::size_t bytes = 0;
    for (const auto& [sender, seq] : t.snapshot()) {
      bytes += util::varint_size(sender.value()) + util::varint_size(seq);
    }
    return bytes;
  };
  EXPECT_EQ(t.entry_wire_bytes(), 0u);
  t.set_anchor(pid(0), 0);
  t.set_anchor(pid(1), 0);
  for (std::uint64_t s = 1; s <= 100; ++s) t.note_seen(pid(1), s);
  EXPECT_EQ(t.entry_wire_bytes(), reference_entries());
  for (std::uint64_t s = 101; s <= 200; ++s) t.note_seen(pid(1), s);
  for (std::uint64_t s = 1; s <= 20000; ++s) t.note_seen(pid(0), s);
  EXPECT_EQ(t.entry_wire_bytes(), reference_entries());

  t.record_own_debt(1, 2);
  t.record_own_debt(300, 1000);
  const auto report = t.take_snapshot();
  std::size_t debt_bytes = 0;
  for (const auto& d : report.debts) debt_bytes += purge_debt_wire_size(d);
  EXPECT_EQ(t.debt_wire_bytes(), debt_bytes);

  t.reset();
  EXPECT_EQ(t.entry_wire_bytes(), 0u);
  EXPECT_EQ(t.debt_wire_bytes(), 0u);
}

TEST(StabilityLedger, OwnDebtsRetireOnceEveryFrontierPassedThem) {
  // Debt GC: once every member's reported frontier for this node's own
  // channel passed a purged seq, the debt (and its gossip bytes) retire —
  // the ledger is bounded by the un-stable window.
  StabilityLedger t;
  t.set_anchor(pid(0), 0);
  for (std::uint64_t s = 1; s <= 5; ++s) t.note_seen(pid(0), s);
  t.record_own_debt(2, 4);
  t.record_own_debt(5, 6);
  EXPECT_EQ(t.own_debts(), 2u);
  // Peers' frontiers passed 2 but not 5.
  t.merge_report(pid(1), {{pid(0), 4}});
  t.merge_report(pid(2), {{pid(0), 4}});
  EXPECT_EQ(t.collect_debts(view3(), pid(0)), 1u);
  EXPECT_EQ(t.own_debts(), 1u);
  // A later full round must not resurrect the retired debt.
  const auto snap = t.take_snapshot();
  ASSERT_EQ(snap.debts.size(), 1u);
  EXPECT_EQ(snap.debts[0], (PurgeDebt{5, 6}));
}

TEST(StabilityLedger, MergedDebtsPruneBehindTheLocalFrontier) {
  StabilityLedger t;
  t.set_anchor(pid(1), 0);
  t.merge_debts(pid(1), {{PurgeDebt{1, 2}, PurgeDebt{3, 5}}});
  t.note_seen(pid(1), 2);
  EXPECT_EQ(t.frontier(pid(1)), 2u);
  EXPECT_EQ(t.merged_debts(), 1u);  // 1 -> 2 explained and pruned
  t.note_seen(pid(1), 4);
  t.note_seen(pid(1), 5);
  EXPECT_EQ(t.frontier(pid(1)), 5u);  // 3 via its received cover 5
  EXPECT_EQ(t.merged_debts(), 0u);
}

TEST(StabilityLedger, SnapshotAndReset) {
  StabilityLedger t;
  t.set_anchor(pid(0), 0);
  t.set_anchor(pid(1), 0);
  t.note_seen(pid(0), 1);
  t.note_seen(pid(1), 1);
  t.note_seen(pid(1), 2);
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, pid(0));
  EXPECT_EQ(snap[1].second, 2u);
  t.reset();
  EXPECT_FALSE(t.high_water(pid(0)).has_value());
  EXPECT_FALSE(t.frontier(pid(0)).has_value());
  EXPECT_FALSE(t.dirty());
  EXPECT_TRUE(t.snapshot().empty());
  EXPECT_EQ(t.own_debts(), 0u);
}

TEST(StabilityLedger, ExactReceptionTracksGapsBelowTheHighWater) {
  // Sender-side purging removes seqs from a channel, so reception is not
  // contiguous: the high-water mark says nothing about the gaps below it,
  // and received() must answer exactly (the t7 flush relies on it).
  StabilityLedger t;
  t.note_seen(pid(1), 1);
  t.note_seen(pid(1), 2);
  t.note_seen(pid(1), 5);  // 3 and 4 were purged out of the channel
  EXPECT_TRUE(t.received(pid(1), 2));
  EXPECT_FALSE(t.received(pid(1), 3));
  EXPECT_FALSE(t.received(pid(1), 4));
  EXPECT_TRUE(t.received(pid(1), 5));
  EXPECT_FALSE(t.received(pid(1), 6));
  EXPECT_EQ(t.high_water(pid(1)), 5u);
  // A view-change flush closes the gap; the frontier does not regress.
  t.note_seen(pid(1), 3);
  t.note_seen(pid(1), 4);
  EXPECT_TRUE(t.received(pid(1), 3));
  EXPECT_TRUE(t.received(pid(1), 4));
  EXPECT_EQ(t.high_water(pid(1)), 5u);
}

TEST(StabilityLedger, ReceptionMayStartAboveTheViewsFirstSeq) {
  // Even the first messages of a view can be purged away before anything
  // gets through: the record starts at the first seq actually received and
  // claims nothing below it.
  StabilityLedger t;
  t.note_seen(pid(1), 7);
  EXPECT_FALSE(t.received(pid(1), 6));
  EXPECT_TRUE(t.received(pid(1), 7));
  t.note_seen(pid(1), 6);  // flush-in extends the record downwards
  EXPECT_TRUE(t.received(pid(1), 6));
  EXPECT_FALSE(t.received(pid(1), 5));
  EXPECT_EQ(t.high_water(pid(1)), 7u);
}

// ---------------------------------------------------------------------------
// ViewChangeEngine
// ---------------------------------------------------------------------------

TEST(ViewChangeEngine, BeginBlocksAndFiltersLeaveSet) {
  ViewChangeEngine e;
  EXPECT_FALSE(e.blocked());
  // pid(9) is not a member; the leave set keeps only current members.
  const InitMessage init(ViewId(0), {pid(2), pid(9)});
  e.begin(init, view3(), sim::TimePoint::origin() + sim::Duration::millis(5));
  EXPECT_TRUE(e.blocked());
  EXPECT_EQ(e.started_at(),
            sim::TimePoint::origin() + sim::Duration::millis(5));

  StubDetector fd;
  for (std::uint32_t p = 0; p < 3; ++p) {
    e.add_pred(pid(p), PredMessage(ViewId(0), {}));
  }
  ASSERT_TRUE(ready_after_grace(e, view3(), fd));
  const auto proposal = e.take_proposal(view3());
  EXPECT_EQ(proposal->next_view().id(), ViewId(1));
  EXPECT_EQ(proposal->next_view().size(), 2u);
  EXPECT_FALSE(proposal->next_view().contains(pid(2)));
}

TEST(ViewChangeEngine, ProposeWaitsForUnsuspectedMembers) {
  ViewChangeEngine e;
  e.begin(InitMessage(ViewId(0), {}), view3(), sim::TimePoint::origin());
  StubDetector fd;
  e.add_pred(pid(0), PredMessage(ViewId(0), {}));
  e.add_pred(pid(1), PredMessage(ViewId(0), {}));
  // pid(2) neither answered nor is suspected: the guard holds.
  EXPECT_FALSE(ready_after_grace(e, view3(), fd));
  fd.suspected.insert(pid(2));
  EXPECT_TRUE(ready_after_grace(e, view3(), fd));
}

TEST(ViewChangeEngine, ProposeNeedsAMajority) {
  ViewChangeEngine e;
  e.begin(InitMessage(ViewId(0), {}), view3(), sim::TimePoint::origin());
  StubDetector fd;
  fd.suspected = {pid(1), pid(2)};
  e.add_pred(pid(0), PredMessage(ViewId(0), {}));
  // Every unsuspected member answered, but 1 of 3 is not a majority.
  EXPECT_FALSE(ready_after_grace(e, view3(), fd));
  e.add_pred(pid(1), PredMessage(ViewId(0), {}));
  EXPECT_TRUE(ready_after_grace(e, view3(), fd));
}

TEST(ViewChangeEngine, GlobalPredDeduplicatesById) {
  ViewChangeEngine e;
  e.begin(InitMessage(ViewId(0), {}), view3(), sim::TimePoint::origin());
  StubDetector fd;
  const auto m = msg(0, 1);
  e.add_pred(pid(0), PredMessage(ViewId(0), {m, msg(0, 2)}));
  e.add_pred(pid(1), PredMessage(ViewId(0), {msg(0, 1), msg(1, 1)}));
  e.add_pred(pid(2), PredMessage(ViewId(0), {}));
  ASSERT_TRUE(ready_after_grace(e, view3(), fd));
  const auto proposal = e.take_proposal(view3());
  EXPECT_EQ(proposal->pred_view().size(), 3u);  // {0#1, 0#2, 1#1}
  EXPECT_TRUE(e.proposed());
  EXPECT_FALSE(ready_after_grace(e, view3(), fd));  // propose at most once
}

TEST(ViewChangeEngine, ResetClearsTheChange) {
  ViewChangeEngine e;
  e.begin(InitMessage(ViewId(0), {pid(2)}), view3(), sim::TimePoint::origin());
  StubDetector fd;
  for (std::uint32_t p = 0; p < 3; ++p) {
    e.add_pred(pid(p), PredMessage(ViewId(0), {msg(p, 1)}));
  }
  (void)e.take_proposal(view3());
  e.reset();
  EXPECT_FALSE(e.blocked());
  EXPECT_FALSE(e.proposed());

  // A fresh change starts from scratch: no leave carry-over, empty pred.
  const View v1(ViewId(1), {pid(0), pid(1)});
  e.begin(InitMessage(ViewId(1), {}), v1, sim::TimePoint::origin());
  e.add_pred(pid(0), PredMessage(ViewId(1), {}));
  e.add_pred(pid(1), PredMessage(ViewId(1), {}));
  ASSERT_TRUE(ready_after_grace(e, v1, fd));
  const auto proposal = e.take_proposal(v1);
  EXPECT_EQ(proposal->next_view().size(), 2u);
  EXPECT_TRUE(proposal->pred_view().empty());
}

TEST(ViewChangeEngine, DeferredControlBatches) {
  ViewChangeEngine e;
  const auto i2 = std::make_shared<InitMessage>(ViewId(2),
                                                std::vector<net::ProcessId>{});
  const auto i3 = std::make_shared<InitMessage>(ViewId(3),
                                                std::vector<net::ProcessId>{});
  e.defer(2, pid(1), i2);
  e.defer(3, pid(2), i3);
  EXPECT_TRUE(e.has_deferred());

  // Batches for superseded views are dropped; the due batch is returned.
  const auto due = e.take_due(2);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].first, pid(1));
  EXPECT_TRUE(e.has_deferred());  // view 3 still parked
  const auto later = e.take_due(4);
  EXPECT_TRUE(later.empty());  // view 3's batch was below 4: dropped
  EXPECT_FALSE(e.has_deferred());
}

}  // namespace
}  // namespace svs::core
