// Determinism golden test: the same seed and workload must produce
// byte-identical substrate counters, run after run and PR after PR.
//
// The goldens below were captured from the dense-registry/flat-link-table
// send path; they were re-captured (deliberately) for the purge-debt
// stability ledger, whose gossip cadence differs from the old raw-mark
// tracker: a receiver's first report for a channel now waits for the
// sender's anchor announcement, debts ride the rounds, and frontier moves
// rather than raw high-water rises drive dirtiness — so the control-lane
// send/event counts shifted while the data-lane protocol behaviour
// (sends, deliveries, purges, refusals of the *data* stream) is checked
// unchanged by the rest of the suite.  If a future change shifts these
// numbers it changed
// the simulated protocol (event ordering, admission decisions, purge
// behaviour), not just its speed: either find the unintended divergence or
// re-capture the goldens deliberately and say so in the PR.
//
// Re-captured for quiescent adaptive gossip: suppressed clean rounds,
// silent-interval heartbeats, the no-news-gated anti-entropy refresh and
// collection running before the convergence check all reduce the
// control-lane send/event totals (every gossip round that no longer
// fires is a send and a handful of events gone).  The data-lane protocol
// counters — refusals, sender- and receiver-side purges — are
// bit-identical to the pre-quiescence goldens, which is the check that
// the gossip change did not leak into admission or GC decisions.
//
// Regenerate by printing the RunResult fields of these two configs (e.g.
// temporarily EXPECT_EQ against 0 and read the failure output).
//
// The explorer golden pins fault-injected behaviour the same way: the sums
// of ScenarioExplorer::run over seeds 1..100 under four pins, the values
// `svs_explore --seeds=100 [--relation=kenum | --fd=swim | --fd=heartbeat]`
// prints as "sim events".  Jitter, partitions, crashes, duplication, loss,
// all three failure detectors and view changes under every relation feed
// these totals, so a change to any of them moves a number here.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

#include "bench/common.hpp"
#include "sim/explorer.hpp"
#include "workload/game_generator.hpp"

namespace svs {
namespace {

workload::Trace make_trace(std::uint64_t seed, std::size_t rounds) {
  workload::GameTraceGenerator::Config tc;
  tc.seed = seed;
  workload::GameTraceGenerator gen(tc);
  return gen.generate(rounds);
}

// Uncontended: buffers never fill, no refusals, no purging pressure — the
// pure fan-out/delivery event machinery.
TEST(DeterminismGolden, UncontendedSlowConsumerRun) {
  const auto trace = make_trace(42, 300);
  bench::RunConfig rc;
  rc.trace = &trace;
  rc.replicas = 4;
  rc.buffer = 10'000;
  rc.consumer_rate = 5'000.0;
  const auto r = bench::run_slow_consumer(rc);

  EXPECT_TRUE(r.producer_done);
  EXPECT_EQ(r.messages_sent, 4119u);
  EXPECT_EQ(r.messages_delivered, 4119u);
  EXPECT_EQ(r.sim_events, 14156u);
  EXPECT_EQ(r.refused, 0u);
  EXPECT_EQ(r.purged_sender, 0u);
}

// Contended: the Fig-4 shape — small buffers, slow consumer, refusals and
// sender-side purging all active.  Locks the full feedback loop
// (backpressure, admission, windowed outgoing purge, stability gossip).
TEST(DeterminismGolden, ContendedSlowConsumerRun) {
  const auto trace = make_trace(42, 800);
  bench::RunConfig rc;
  rc.trace = &trace;
  rc.replicas = 4;
  rc.buffer = 10;
  rc.consumer_rate = 20.0;
  const auto r = bench::run_slow_consumer(rc);

  EXPECT_TRUE(r.producer_done);
  EXPECT_EQ(r.messages_sent, 13779u);
  EXPECT_EQ(r.messages_delivered, 12994u);
  EXPECT_EQ(r.sim_events, 45546u);
  EXPECT_EQ(r.refused, 1024u);
  EXPECT_EQ(r.purged_sender, 785u);
  EXPECT_EQ(r.purged_receiver, 40u);
}

// Same run twice from fresh state: every counter identical (no hidden
// global state, no address-dependent ordering anywhere in the stack).
TEST(DeterminismGolden, RepeatRunsAreIdentical) {
  const auto trace = make_trace(7, 200);
  bench::RunConfig rc;
  rc.trace = &trace;
  rc.replicas = 3;
  rc.buffer = 12;
  rc.consumer_rate = 40.0;
  const auto a = bench::run_slow_consumer(rc);
  const auto b = bench::run_slow_consumer(rc);

  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_delivered, b.messages_delivered);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.refused, b.refused);
  EXPECT_EQ(a.purged_sender, b.purged_sender);
  EXPECT_EQ(a.purged_receiver, b.purged_receiver);
  EXPECT_EQ(a.idle_fraction, b.idle_fraction);
}

// Seeds 1..100 of the scenario explorer, per pin: the simulator events and
// the data deliveries summed over all runs, every run free of violations.
TEST(DeterminismGolden, ExplorerTotalsOverSeeds1To100) {
  struct Pin {
    const char* name;
    std::optional<sim::RelationKind> relation;
    std::optional<sim::FdBackend> fd;
    std::uint64_t sim_events;
    std::uint64_t deliveries;
  };
  const Pin pins[] = {
      {"unpinned", std::nullopt, std::nullopt, 556'397u, 35'866u},
      {"kenum", sim::RelationKind::k_enum, std::nullopt, 558'463u, 35'224u},
      {"swim", std::nullopt, sim::FdBackend::swim, 549'636u, 31'517u},
      {"heartbeat", std::nullopt, sim::FdBackend::heartbeat, 762'429u, 36'735u},
  };
  const sim::ScenarioExplorer explorer;
  for (const Pin& pin : pins) {
    std::uint64_t sim_events = 0;
    std::uint64_t deliveries = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      sim::ScenarioSpec spec;
      spec.seed = seed;
      spec.relation_pin = pin.relation;
      spec.fd_pin = pin.fd;
      const sim::ScenarioOutcome outcome = explorer.run(spec);
      EXPECT_TRUE(outcome.violations.empty()) << pin.name << " seed " << seed;
      sim_events += outcome.sim_events;
      deliveries += outcome.deliveries;
    }
    EXPECT_EQ(sim_events, pin.sim_events) << pin.name;
    EXPECT_EQ(deliveries, pin.deliveries) << pin.name;
  }
}

}  // namespace
}  // namespace svs
