// Microbenchmarks of the hot paths: simulator events, network hops,
// end-to-end multicast delivery, purging, consensus instances, trace
// generation.
//
// The main() epilogue writes BENCH_micro.json: purge-scan steps per arrival
// on the indexed per-sender path across queue lengths (flat, bounded by the
// k-enumeration horizon), plus simulator events per second.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "bench/json.hpp"
#include "consensus/mux.hpp"
#include "core/delivery_queue.hpp"
#include "core/group.hpp"
#include "fd/oracle.hpp"
#include "metrics/stats.hpp"
#include "obs/batch.hpp"
#include "sim/explorer.hpp"
#include "sim/simulator.hpp"
#include "workload/consumer.hpp"
#include "workload/game_generator.hpp"

namespace {

using namespace svs;

void BM_Simulator_ScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_after(sim::Duration::micros(i), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_Simulator_ScheduleRun);

class NullPayload final : public core::Payload {
 public:
  [[nodiscard]] std::size_t wire_size() const override { return 8; }
};

void BM_Multicast_EndToEnd(benchmark::State& state) {
  // Cost of one multicast fully delivered to a group of n (events, queue
  // operations, delivery) under the empty relation.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = n;
  cfg.node.relation = std::make_shared<obs::EmptyRelation>();
  cfg.auto_membership = false;
  core::Group group(sim, cfg);
  const auto payload = std::make_shared<NullPayload>();
  for (auto _ : state) {
    group.node(0).multicast(payload, obs::Annotation::none());
    sim.run();
    for (std::size_t i = 0; i < n; ++i) {
      while (group.node(i).try_deliver().has_value()) {
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Multicast_EndToEnd)->Arg(3)->Arg(5)->Arg(9);

void BM_Multicast_WithPurging(benchmark::State& state) {
  // Same, but with item-tag purging doing work at every hop (single hot
  // item, bounded queues).
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = 4;
  cfg.node.relation = std::make_shared<obs::ItemTagRelation>();
  cfg.node.delivery_capacity = 16;
  cfg.node.out_capacity = 16;
  cfg.auto_membership = false;
  core::Group group(sim, cfg);
  const auto payload = std::make_shared<NullPayload>();
  for (auto _ : state) {
    group.node(0).multicast(payload, obs::Annotation::item(1));
    sim.run();
    while (group.node(0).try_deliver().has_value()) {
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Multicast_WithPurging);

class IntValue final : public consensus::ValueBase {
 public:
  explicit IntValue(int v) : v_(v) {}
  [[nodiscard]] std::size_t wire_size() const override { return 4; }

 private:
  [[maybe_unused]] int v_;
};

class MuxEndpoint final : public net::Endpoint {
 public:
  MuxEndpoint(sim::Simulator& sim, net::Network& network, net::ProcessId self)
      : fd(sim, network, self, sim::Duration::millis(10)),
        mux(network, fd, self) {
    network.attach(self, *this);
  }
  bool on_message(net::ProcessId from, const net::MessagePtr& m,
                  net::Lane) override {
    mux.on_message(from, m);
    return true;
  }
  fd::OracleDetector fd;
  consensus::Mux mux;
};

void BM_Consensus_Decide(benchmark::State& state) {
  // Full 5-participant Chandra-Toueg instance, propose to decision; each
  // decided instance is closed, as the view-change protocol does.
  const std::size_t n = 5;
  sim::Simulator sim;
  net::Network network(sim, {});
  std::vector<std::unique_ptr<MuxEndpoint>> procs;
  std::vector<net::ProcessId> pids;
  for (std::size_t i = 0; i < n; ++i) {
    pids.push_back(net::ProcessId(static_cast<std::uint32_t>(i)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    procs.push_back(std::make_unique<MuxEndpoint>(sim, network, pids[i]));
  }
  std::uint64_t instance = 0;
  for (auto _ : state) {
    ++instance;
    const consensus::InstanceId id(instance);
    int decided = 0;
    for (std::size_t i = 0; i < n; ++i) {
      procs[i]->mux.open(id, pids,
                         [&decided](const consensus::ValuePtr&) { ++decided; });
      procs[i]->mux.propose(id,
                            std::make_shared<IntValue>(static_cast<int>(i)));
    }
    sim.run();
    if (decided != static_cast<int>(n)) state.SkipWithError("no decision");
    for (auto& p : procs) p->mux.close_below(id.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Consensus_Decide);

void BM_ViewChange(benchmark::State& state) {
  // A full view change (INIT -> PRED -> consensus -> install) in a group
  // of 4 with empty queues.
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = 4;
  cfg.node.relation = std::make_shared<obs::EmptyRelation>();
  cfg.auto_membership = false;
  core::Group group(sim, cfg);
  sim.run();
  for (auto _ : state) {
    group.node(0).request_view_change({});
    sim.run();
    for (std::size_t i = 0; i < 4; ++i) {
      while (group.node(i).try_deliver().has_value()) {
      }
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ViewChange);

void BM_TraceGeneration(benchmark::State& state) {
  workload::GameTraceGenerator::Config cfg;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    workload::GameTraceGenerator gen(cfg);
    benchmark::DoNotOptimize(gen.generate(1000));
  }
  state.SetItemsProcessed(state.iterations() * 1000);  // rounds
}
BENCHMARK(BM_TraceGeneration);

// ---------------------------------------------------------------------------
// JSON epilogue: the measured refactor wins.
// ---------------------------------------------------------------------------

/// Average covers() examinations per arrival (capacity pre-check + purge)
/// against a steady queue of `length` entries spread over 8 senders, under
/// the k-enumeration relation.  The indexed purge is bounded by the bitmap
/// horizon, whatever the queue length.
double purge_steps_per_arrival(std::size_t length) {
  constexpr std::uint32_t kSenders = 8;
  constexpr std::size_t kHorizon = 16;
  const core::ViewId view{0};
  core::DeliveryQueue queue(std::make_shared<obs::KEnumRelation>(),
                            net::ProcessId(0), nullptr);
  std::vector<obs::BatchComposer> composers;
  std::vector<std::uint64_t> next_seq(kSenders, 1);
  for (std::uint32_t s = 0; s < kSenders; ++s) {
    composers.emplace_back(
        obs::BatchComposer::Config{obs::AnnotationKind::k_enum, kHorizon, 0});
  }
  std::uint64_t item = 0;
  const auto arrival = [&](std::uint32_t s) {
    const std::uint64_t seq = next_seq[s]++;
    // Every message updates a fresh item, so nothing is ever covered and
    // the queue length stays put — the scan cost is what varies.
    const auto m = std::make_shared<core::DataMessage>(
        net::ProcessId(s), seq, view, composers[s].single(++item, seq),
        nullptr);
    (void)queue.count_victims(*m, view);
    queue.purge_with(m, view);
    queue.push_data(m);
  };
  for (std::uint32_t s = 0; queue.data_count() < length; s = (s + 1) % kSenders) {
    arrival(s);
  }
  const auto before = queue.stats().purge_scan_steps;
  constexpr int kArrivals = 256;
  for (int i = 0; i < kArrivals; ++i) {
    arrival(static_cast<std::uint32_t>(i) % kSenders);
    queue.pop_front();  // hold the length steady
  }
  return static_cast<double>(queue.stats().purge_scan_steps - before) /
         kArrivals;
}

/// Broadcast fan-out cost vs group size: one producer flooding a group of
/// n, full delivery at every member.  On the dense-registry path the cost
/// per destination (send + queue + delivery) must stay flat as n grows —
/// the O(1)-per-destination claim of the flat link table.  Also reports
/// simulator events per multicast (≈ linear in n by construction: n
/// deliveries happen regardless; what must not grow is the *wall cost per
/// destination*).
bench::JsonObject measure_fanout(std::size_t n) {
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = n;
  cfg.node.relation = std::make_shared<obs::EmptyRelation>();
  cfg.auto_membership = false;
  // Stability gossip is all-to-all by design (every member reports to every
  // other); it would put an O(n²)-messages term on top of the O(n) fan-out
  // this micro isolates.  Disabled here; the gossip's own cost is exercised
  // by the figure benches.
  cfg.node.stability_interval = sim::Duration::zero();
  core::Group group(sim, cfg);
  const auto payload = std::make_shared<NullPayload>();
  // Keep total deliveries roughly constant across sizes so every row costs
  // similar wall time.
  const int multicasts = static_cast<int>(96'000 / n);
  const bench::WallClock wall;
  for (int i = 0; i < multicasts; ++i) {
    group.node(0).multicast(payload, obs::Annotation::none());
    sim.run();
    for (std::size_t d = 0; d < n; ++d) {
      while (group.node(d).try_deliver().has_value()) {
      }
    }
  }
  const double seconds = wall.seconds();
  const double destinations =
      static_cast<double>(multicasts) * static_cast<double>(n - 1);
  bench::JsonObject o;
  o.add("group_size", static_cast<double>(n))
      .add("multicasts", static_cast<double>(multicasts))
      .add("wall_seconds", seconds)
      .add("ns_per_destination", seconds * 1e9 / destinations)
      .add("events_per_multicast",
           static_cast<double>(sim.executed()) / multicasts)
      .add("events_per_second",
           seconds > 0.0 ? static_cast<double>(sim.executed()) / seconds
                         : 0.0);
  return o;
}

/// Transport-layer fan-out cost: Network::multicast into accept-all sinks,
/// no protocol above.  Isolates the dense-registry send path — resolving
/// the sender row once and enqueueing per destination must cost the same
/// at n = 64 as at n = 4.
bench::JsonObject measure_net_fanout(std::size_t n) {
  class AcceptAll final : public net::Endpoint {
   public:
    bool on_message(net::ProcessId, const net::MessagePtr&,
                    net::Lane) override {
      return true;
    }
  };
  sim::Simulator sim;
  net::Network network(sim, {});
  std::vector<AcceptAll> sinks(n);
  std::vector<net::ProcessId> pids;
  pids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pids.push_back(net::ProcessId(static_cast<std::uint32_t>(i)));
    network.attach(pids[i], sinks[i]);
  }
  const auto m = std::make_shared<core::DataMessage>(
      pids[0], 1, core::ViewId(0), obs::Annotation::none(), nullptr);
  const int multicasts = static_cast<int>(256'000 / n);
  const bench::WallClock wall;
  for (int i = 0; i < multicasts; ++i) {
    network.multicast(pids[0], pids, m, net::Lane::data);
    sim.run();
  }
  const double seconds = wall.seconds();
  const double destinations =
      static_cast<double>(multicasts) * static_cast<double>(n - 1);
  bench::JsonObject o;
  o.add("group_size", static_cast<double>(n))
      .add("multicasts", static_cast<double>(multicasts))
      .add("wall_seconds", seconds)
      .add("ns_per_destination", seconds * 1e9 / destinations);
  return o;
}

/// End-to-end event throughput: a 5-node group flooding multicasts,
/// reported as simulator events per wall second — plus the pool's view of
/// the same loop (hits/misses/bytes recycled), the direct measurement of
/// how much of the hot path escapes the system allocator.
bench::JsonObject measure_events_per_second() {
  const metrics::Stats pool_before = metrics::Stats::snapshot();
  const bench::WallClock wall;
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = 5;
  cfg.node.relation = std::make_shared<obs::EmptyRelation>();
  cfg.auto_membership = false;
  core::Group group(sim, cfg);
  const auto payload = std::make_shared<NullPayload>();
  for (int i = 0; i < 20'000; ++i) {
    group.node(0).multicast(payload, obs::Annotation::none());
    sim.run();
    for (std::size_t n = 0; n < 5; ++n) {
      while (group.node(n).try_deliver().has_value()) {
      }
    }
  }
  const double seconds = wall.seconds();
  const metrics::Stats pool = metrics::Stats::snapshot() - pool_before;
  bench::JsonObject o;
  o.add("multicasts", 20'000.0)
      .add("messages_sent",
           static_cast<double>(group.network().stats().sent))
      .add("sim_events", static_cast<double>(sim.executed()))
      .add("wall_seconds", seconds)
      .add("events_per_second",
           seconds > 0.0 ? static_cast<double>(sim.executed()) / seconds
                         : 0.0)
      .add("pool_hits", static_cast<double>(pool.pool_hits))
      .add("pool_misses", static_cast<double>(pool.pool_misses))
      .add("pool_bytes_recycled", static_cast<double>(pool.bytes_recycled));
  return o;
}

/// Real-socket flood: the multicast_flood loop, but every delivery crosses
/// the kernel as a UDP datagram and comes back through the reliable lane
/// (all-local sync crossing, so the protocol history is bit-identical to
/// the sim backend).  Reports the end-to-end event rate over real sockets
/// plus the lane's own economy: datagrams and ack bytes per multicast, and
/// the encode-once reuse counters.  Loopback loses nothing, so
/// retransmissions stay near zero — the odd one is a scheduling stall
/// outliving the RTO, repaired and counted as a duplicate drop.
bench::JsonObject measure_udp_loopback_flood() {
  constexpr int kMulticasts = 4'000;
  constexpr std::size_t kNodes = 5;
  const bench::WallClock wall;
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = kNodes;
  cfg.backend = core::Group::Backend::udp;
  cfg.node.relation = std::make_shared<obs::EmptyRelation>();
  cfg.auto_membership = false;
  core::Group group(sim, cfg);
  const auto payload = std::make_shared<NullPayload>();
  for (int i = 0; i < kMulticasts; ++i) {
    group.node(0).multicast(payload, obs::Annotation::none());
    sim.run();
    for (std::size_t n = 0; n < kNodes; ++n) {
      while (group.node(n).try_deliver().has_value()) {
      }
    }
  }
  // Drain the shadow wire so the syscall economy covers every multicast:
  // the verdicts were synchronous, but the frames ship in batches behind
  // the crossings and the lane counters settle only at links_idle().
  auto* udp = group.udp();
  const std::int64_t drain = net::UdpTransport::mono_us() + 10'000'000;
  while (!udp->links_idle() && net::UdpTransport::mono_us() < drain) {
    udp->pump(1'000);
  }
  const double seconds = wall.seconds();
  const auto lane = udp->lane_stats();
  const double syscalls =
      static_cast<double>(lane.syscalls_sent + lane.syscalls_recvd);
  const double datagrams = static_cast<double>(lane.datagrams_sent);
  bench::JsonObject o;
  o.add("multicasts", static_cast<double>(kMulticasts))
      .add("sim_events", static_cast<double>(sim.executed()))
      .add("wall_seconds", seconds)
      .add("events_per_second",
           seconds > 0.0 ? static_cast<double>(sim.executed()) / seconds
                         : 0.0)
      .add("datagrams_per_multicast",
           static_cast<double>(lane.datagrams_sent) / kMulticasts)
      .add("syscalls_per_multicast", syscalls / kMulticasts)
      .add("datagrams_per_syscall", syscalls > 0.0 ? datagrams / syscalls : 0.0)
      .add("syscalls_sent", static_cast<double>(lane.syscalls_sent))
      .add("syscalls_recvd", static_cast<double>(lane.syscalls_recvd))
      .add("mmsg_sends", static_cast<double>(lane.mmsg_sends))
      .add("mmsg_recvs", static_cast<double>(lane.mmsg_recvs))
      .add("wheel_cascades", static_cast<double>(lane.wheel_cascades))
      .add("datagram_bytes_sent",
           static_cast<double>(lane.datagram_bytes_sent))
      .add("ack_bytes", static_cast<double>(lane.ack_bytes))
      .add("frames_delivered", static_cast<double>(lane.frames_delivered))
      .add("frame_encodes", static_cast<double>(lane.frame_encodes))
      .add("frame_reuses", static_cast<double>(lane.frame_reuses))
      .add("retransmissions", static_cast<double>(lane.retransmissions))
      .add("duplicate_drops", static_cast<double>(lane.duplicate_drops));
  return o;
}

/// Scenario-explorer throughput: full seed-derived fault-injected scenarios
/// (group + consumers + fault plan + SpecChecker + quiescence drive) per
/// wall second, and the simulator event rate achieved inside them.  This is
/// the cost of one unit of model-testing coverage — what bounds how many
/// seeds a CI sweep can afford.
bench::JsonObject measure_explorer_throughput() {
  constexpr std::uint64_t kSeeds = 64;
  sim::ScenarioExplorer explorer;
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t fault_specs = 0;
  std::uint64_t fault_events = 0;  // measured injector activity
  std::uint64_t violations = 0;
  const bench::WallClock wall;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    sim::ScenarioSpec spec;
    spec.seed = seed;
    const auto outcome = explorer.run(spec);
    events += outcome.sim_events;
    deliveries += outcome.deliveries;
    fault_specs += outcome.faults_active;
    fault_events += outcome.net_stats.injected_duplicates +
                    outcome.net_stats.injected_drops +
                    outcome.net_stats.injected_pauses;
    violations += outcome.violations.size();
  }
  const double seconds = wall.seconds();
  bench::JsonObject o;
  o.add("scenarios", static_cast<double>(kSeeds))
      .add("fault_specs_scheduled", static_cast<double>(fault_specs))
      .add("fault_events_injected", static_cast<double>(fault_events))
      .add("deliveries", static_cast<double>(deliveries))
      .add("violations", static_cast<double>(violations))
      .add("wall_seconds", seconds)
      .add("scenarios_per_second",
           seconds > 0.0 ? static_cast<double>(kSeeds) / seconds : 0.0)
      .add("events_per_second",
           seconds > 0.0 ? static_cast<double>(events) / seconds : 0.0);
  return o;
}

/// Purge-debt ledger cost under the workload it exists for: a k-enumeration
/// producer cycling three hot items into a group with one slow consumer, so
/// the outgoing buffer backs up and every fresh multicast purges queued
/// predecessors.  Reports how many debts the run recorded, shipped and
/// retired, the exact debt-section wire bytes, and the end-state ledger
/// size (must be zero: debts are GC'd once their covers are stable).
bench::JsonObject measure_stability_debt() {
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kMessages = 4000;
  const bench::WallClock wall;
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = kNodes;
  cfg.node.relation = std::make_shared<obs::KEnumRelation>();
  // Two delivery slots against three cycling items: the slow consumer's
  // queue holds two of them and refuses the third, so the channel backs up
  // and sender-side purging fires (receiver-side purging alone cannot keep
  // it flowing, unlike the single-item case).
  cfg.node.delivery_capacity = 2;
  cfg.node.out_capacity = 10;
  cfg.auto_membership = false;
  core::Group group(sim, cfg);
  std::vector<std::unique_ptr<workload::InstantConsumer>> instant;
  for (std::size_t i = 0; i + 1 < kNodes; ++i) {
    instant.push_back(
        std::make_unique<workload::InstantConsumer>(sim, group.node(i)));
    instant.back()->start();
  }
  workload::RateConsumer slow(sim, group.node(kNodes - 1), 100.0);
  slow.start();
  obs::BatchComposer composer(
      obs::BatchComposer::Config{obs::AnnotationKind::k_enum, 12, 0});
  std::size_t produced = 0;
  std::size_t peak_own = 0;
  std::function<void()> produce = [&] {
    if (produced >= kMessages) return;
    const auto item = static_cast<std::uint64_t>(produced % 3);
    obs::BatchComposer trial = composer;
    const auto annotation = trial.single(item, group.node(0).next_seq());
    if (group.node(0)
            .multicast(std::make_shared<NullPayload>(), annotation)
            .has_value()) {
      composer = std::move(trial);
      ++produced;
      peak_own =
          std::max(peak_own, group.node(0).stability_ledger().own_debts());
    }
    sim.schedule_after(sim::Duration::micros(500), produce);
  };
  sim.schedule_after(sim::Duration::micros(500), produce);
  const auto deadline = sim::TimePoint::origin() + sim::Duration::seconds(60.0);
  while (sim.now() < deadline && produced < kMessages) {
    sim.run_until(sim.now() + sim::Duration::seconds(1.0));
  }
  if (produced >= kMessages) {
    // Only a finished producer stops rescheduling itself; draining an
    // unfinished one would spin forever — report the degraded counters
    // instead.
    sim.run();  // drain + gossip quiescence
  }
  const double seconds = wall.seconds();
  const auto& stats = group.node(0).stats();
  bench::JsonObject o;
  o.add("multicasts", static_cast<double>(produced))
      .add("purged_outgoing",
           static_cast<double>(group.network().stats().purged_outgoing))
      .add("debts_recorded", static_cast<double>(stats.debts_recorded))
      .add("debts_collected", static_cast<double>(stats.debts_collected))
      .add("debt_entries_gossiped",
           static_cast<double>(stats.debt_entries_gossiped))
      .add("debt_bytes_gossiped",
           static_cast<double>(stats.debt_bytes_gossiped))
      .add("peak_own_debts", static_cast<double>(peak_own))
      .add("end_own_debts",
           static_cast<double>(group.node(0).stability_ledger().own_debts()))
      .add("gossip_bytes_saved",
           static_cast<double>(group.network().stats().gossip_bytes_saved))
      .add("wall_seconds", seconds)
      .add("events_per_second",
           seconds > 0.0 ? static_cast<double>(sim.executed()) / seconds
                         : 0.0);
  return o;
}

/// Steady-state gossip economy (the quiescence measurement): a 6-node
/// group delivers a paced burst, converges, then sits idle for 10 virtual
/// seconds.  Converged members go silent and most standalone rounds during
/// the burst fold into piggybacked frontiers.  Reports idle bytes/member/s
/// and the virtual time the group took to converge after the burst.  The
/// retired fixed-cadence gossip idled at 650 B/member/s with the same 40 ms
/// convergence (bench/baseline/BENCH_micro_pr8.json).
bench::JsonObject measure_steady_state_bytes() {
  constexpr std::size_t kNodes = 6;
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = kNodes;
  cfg.node.relation = std::make_shared<obs::EmptyRelation>();
  cfg.auto_membership = false;
  core::Group group(sim, cfg);
  const auto payload = std::make_shared<NullPayload>();
  const auto drain = [&] {
    for (std::size_t n = 0; n < kNodes; ++n) {
      while (group.node(n).try_deliver().has_value()) {
      }
    }
  };
  // Paced burst: one multicast per virtual millisecond.
  for (int i = 0; i < 64; ++i) {
    group.node(0).multicast(payload, obs::Annotation::none());
    sim.run_until(sim.now() + sim::Duration::millis(1));
    drain();
  }
  const auto converged = [&] {
    for (std::size_t n = 0; n < kNodes; ++n) {
      const auto& ledger = group.node(n).stability_ledger();
      if (group.node(n).delivered_retained() != 0 ||
          ledger.own_debts() != 0 || ledger.merged_debts() != 0) {
        return false;
      }
    }
    return true;
  };
  const sim::TimePoint burst_end = sim.now();
  const auto deadline = burst_end + sim::Duration::seconds(30.0);
  while (!converged() && sim.now() < deadline) {
    sim.run_until(sim.now() + sim::Duration::millis(10));
    drain();
  }
  double convergence_ms = -1.0;  // -1 = did not converge (a bug)
  if (converged()) {
    convergence_ms =
        static_cast<double>((sim.now() - burst_end).as_micros()) / 1000.0;
  }
  // Idle window: the application sends nothing for 10 virtual seconds,
  // so every byte on the wire is background gossip.
  const std::uint64_t bytes_before = group.network().stats().bytes_sent;
  sim.run_until(sim.now() + sim::Duration::seconds(10.0));
  const std::uint64_t idle_bytes =
      group.network().stats().bytes_sent - bytes_before;
  std::uint64_t rounds_suppressed = 0;
  std::uint64_t piggybacks = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    rounds_suppressed += group.node(n).stats().gossip_rounds_suppressed;
    piggybacks += group.node(n).stats().frontier_piggybacks;
  }
  bench::JsonObject o;
  o.add("idle_bytes_per_member_s_quiescent",
        static_cast<double>(idle_bytes) / (10.0 * kNodes))
      .add("convergence_ms_quiescent", convergence_ms)
      .add("gossip_rounds_suppressed", static_cast<double>(rounds_suppressed))
      .add("frontier_piggybacks", static_cast<double>(piggybacks));
  return o;
}

/// Large-group scaling (n = 256..1024): SWIM failure detection plus
/// ring-aggregated stability digests, measured as (a) a paced flood fully
/// delivered at every member, (b) one complete view change, and (c) a
/// 10-virtual-second idle window in which every byte on the wire is
/// failure-detector probing or stability gossip.  The headline metric is
/// idle_control_bytes_per_member_s: the per-member control cost must stay
/// flat as n quadruples — SWIM probes one peer per period regardless of
/// group size, and the digest ring addresses O(1) successors per round
/// (DESIGN.md §11).  All counters are virtual-time metrics, so they are
/// bit-stable across machines; only the wall fields vary.
bench::JsonObject measure_large_group(std::size_t n) {
  const bench::WallClock wall;
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = n;
  cfg.node.relation = std::make_shared<obs::EmptyRelation>();
  cfg.fd_kind = core::Group::FdKind::swim;
  cfg.swim.seed = 0x516;
  cfg.auto_membership = false;
  core::Group group(sim, cfg);
  const auto payload = std::make_shared<NullPayload>();
  const auto drain = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      while (group.node(i).try_deliver().has_value()) {
      }
    }
  };
  // (a) Paced flood, total deliveries held roughly constant across sizes.
  // The SWIM probe timers never stop, so the whole measurement runs in
  // bounded run_until slices — never sim.run().
  const int multicasts = static_cast<int>(32'768 / n);
  int produced = 0;
  const bench::WallClock flood_wall;
  while (produced < multicasts) {
    if (group.node(0)
            .multicast(payload, obs::Annotation::none())
            .has_value()) {
      ++produced;
    }
    sim.run_until(sim.now() + sim::Duration::millis(1));
    drain();
  }
  sim.run_until(sim.now() + sim::Duration::millis(50));  // flood tail
  drain();
  const double flood_seconds = flood_wall.seconds();

  // (b) One full view change: INIT -> n PREDs -> consensus -> install at
  // every member.
  const auto target = group.node(0).current_view().id().next();
  const auto vc_start = sim.now();
  group.node(0).request_view_change({});
  const auto installed_everywhere = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      if (group.node(i).current_view().id().value() < target.value()) {
        return false;
      }
    }
    return true;
  };
  const auto vc_deadline = sim.now() + sim::Duration::seconds(30.0);
  while (!installed_everywhere() && sim.now() < vc_deadline) {
    sim.run_until(sim.now() + sim::Duration::millis(5));
    drain();
  }
  const bool vc_done = installed_everywhere();
  const double vc_ms =
      static_cast<double>((sim.now() - vc_start).as_micros()) / 1000.0;

  // Let stability settle so the idle window measures the steady state, not
  // the tail of the view change.
  sim.run_until(sim.now() + sim::Duration::seconds(2.0));
  drain();

  // (c) Idle window: the application is silent, so every byte is control
  // traffic (SWIM pings/acks + stability digests/gossip).
  const std::uint64_t bytes_before = group.network().stats().bytes_sent;
  const std::uint64_t sent_before = group.network().stats().sent;
  sim.run_until(sim.now() + sim::Duration::seconds(10.0));
  const std::uint64_t idle_bytes =
      group.network().stats().bytes_sent - bytes_before;
  const std::uint64_t idle_msgs = group.network().stats().sent - sent_before;

  std::uint64_t probes = 0;
  std::uint64_t suspicions = 0;
  std::uint64_t digest_rounds = 0;
  std::uint64_t digest_rows = 0;
  std::uint64_t suppressed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (const auto* detector = group.swim_detector(i)) {
      probes += detector->counters().probes_sent;
      suspicions += detector->counters().suspicions;
    }
    const auto& stats = group.node(i).stats();
    digest_rounds += stats.digest_rounds;
    digest_rows += stats.digest_rows_sent;
    suppressed += stats.gossip_rounds_suppressed;
  }

  const double seconds = wall.seconds();
  bench::JsonObject o;
  o.add("group_size", static_cast<double>(n))
      .add("multicasts", static_cast<double>(produced))
      .add("flood_wall_seconds", flood_seconds)
      .add("view_change_completed", vc_done ? 1.0 : 0.0)
      .add("view_change_ms", vc_ms)
      .add("idle_control_bytes_per_member_s",
           static_cast<double>(idle_bytes) / (10.0 * static_cast<double>(n)))
      .add("idle_control_msgs_per_member_s",
           static_cast<double>(idle_msgs) / (10.0 * static_cast<double>(n)))
      .add("swim_probes_sent", static_cast<double>(probes))
      .add("swim_suspicions", static_cast<double>(suspicions))  // 0: no faults
      .add("digest_rounds", static_cast<double>(digest_rounds))
      .add("digest_rows_sent", static_cast<double>(digest_rows))
      .add("gossip_rounds_suppressed", static_cast<double>(suppressed))
      .add("sim_events", static_cast<double>(sim.executed()))
      .add("wall_seconds", seconds)
      .add("events_per_second",
           seconds > 0.0 ? static_cast<double>(sim.executed()) / seconds
                         : 0.0);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const svs::bench::WallClock wall;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  svs::bench::JsonArray scaling;
  for (const std::size_t length : {64u, 256u, 1024u, 4096u}) {
    scaling.push(svs::bench::JsonObject()
                     .add("queue_length", static_cast<double>(length))
                     .add("indexed_steps_per_arrival",
                          purge_steps_per_arrival(length)));
  }
  svs::bench::JsonArray fanout;
  svs::bench::JsonArray net_fanout;
  for (const std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    fanout.push(measure_fanout(n));
    net_fanout.push(measure_net_fanout(n));
  }
  svs::bench::JsonObject payload;
  payload.add("bench", "micro")
      .raw("purge_scaling", scaling.render())
      .raw("fanout_scaling", fanout.render())
      .raw("net_fanout_scaling", net_fanout.render())
      .raw("multicast_flood", measure_events_per_second().render())
      .raw("udp_loopback_flood", measure_udp_loopback_flood().render())
      .raw("explorer_throughput", measure_explorer_throughput().render())
      .raw("stability_debt", measure_stability_debt().render())
      .raw("steady_state_bytes", measure_steady_state_bytes().render());
  // Keyed sub-objects (not an array) so bench_compare's dotted paths can
  // gate individual sizes, e.g. large_group.n256.idle_control_bytes_per_member_s.
  svs::bench::JsonObject large_group;
  for (const std::size_t n : {256u, 512u, 1024u}) {
    large_group.raw("n" + std::to_string(n),
                    measure_large_group(n).render());
  }
  payload.raw("large_group", large_group.render())
      .add("wall_seconds", wall.seconds());
  svs::bench::write_bench_json("micro", payload);
  return 0;
}
