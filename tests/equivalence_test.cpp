// Cross-backend equivalence: the sim fabric vs the all-local UDP backend.
//
// The UDP backend must (a) actually move encoded bytes — the receiver sees
// a freshly decoded object, never the sender's pointer — and (b) behave
// exactly like the sim backend at the protocol level: the equivalence
// tests run nontrivial scenarios (slow consumer + one crash + view
// changes, a churn+loss fault plan, SWIM, k-enumeration purge debts) on
// both Transport backends and demand identical application-visible
// delivery/view sequences per process and identical measured byte and
// protocol counters, even with real datagram loss forced at the socket
// boundary.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/group.hpp"
#include "core/message.hpp"
#include "link_jitter.hpp"
#include "net/fault_injector.hpp"
#include "net/udp_transport.hpp"
#include "obs/batch.hpp"
#include "obs/relation.hpp"
#include "sim/fault_plan.hpp"
#include "sim/simulator.hpp"
#include "workload/consumer.hpp"
#include "workload/item_op.hpp"

namespace svs::net {
namespace {

using core::Delivery;
using core::ViewId;

// ---------------------------------------------------------------------------
// wire mechanics
// ---------------------------------------------------------------------------

class Recorder final : public Endpoint {
 public:
  bool on_message(ProcessId from, const MessagePtr& message,
                  Lane lane) override {
    received.push_back({from, message, lane});
    return true;
  }
  struct Rec {
    ProcessId from;
    MessagePtr message;
    Lane lane;
  };
  std::vector<Rec> received;
};

/// Drains the all-local shadow wire and returns the lane counters: they
/// only settle once every crossing's frame has wire-delivered and
/// byte-verified.
UdpLaneStats settle(UdpTransport& udp) {
  const std::int64_t drain = UdpTransport::mono_us() + 10'000'000;
  while (!udp.links_idle() && UdpTransport::mono_us() < drain) {
    udp.pump(1'000);
  }
  EXPECT_TRUE(udp.links_idle()) << "shadow wire failed to drain";
  return udp.lane_stats();
}

TEST(UdpWire, DeliversFreshlyDecodedObjects) {
  sim::Simulator sim;
  UdpTransport wire(sim, {});
  Recorder a, b;
  wire.attach(ProcessId(0), a);
  wire.attach(ProcessId(1), b);

  const auto sent = std::make_shared<core::DataMessage>(
      ProcessId(0), 1, ViewId(0), obs::Annotation::item(5),
      std::make_shared<workload::ItemOp>(workload::OpKind::update, 5, 42, 1,
                                         true));
  wire.send(ProcessId(0), ProcessId(1), sent, Lane::data);
  sim.run();

  ASSERT_EQ(b.received.size(), 1u);
  const auto& got = b.received[0].message;
  // Same bytes, different object: no shared-pointer identity across the
  // wire.
  EXPECT_NE(got.get(), sent.get());
  ASSERT_EQ(got->type(), MessageType::data);
  const auto& dm = static_cast<const core::DataMessage&>(*got);
  EXPECT_EQ(dm.sender(), ProcessId(0));
  EXPECT_EQ(dm.seq(), 1u);
  EXPECT_EQ(dm.annotation(), obs::Annotation::item(5));
  const auto* op = static_cast<const workload::ItemOp*>(dm.payload().get());
  ASSERT_NE(op, nullptr);
  EXPECT_EQ(op->item(), 5u);
  EXPECT_EQ(op->value(), 42u);
  EXPECT_TRUE(op->commit());

  // One frame crossed the kernel; its size is the measured one.
  const UdpLaneStats lane = settle(wire);
  EXPECT_EQ(lane.frames_delivered, 1u);
  EXPECT_EQ(wire.stats().bytes_delivered, sent->wire_size());
}

TEST(UdpWire, MulticastBytesMatchLinkLayerCountersWithoutRefusals) {
  sim::Simulator sim;
  UdpTransport wire(sim, {});
  Recorder a, b, c;
  wire.attach(ProcessId(0), a);
  wire.attach(ProcessId(1), b);
  wire.attach(ProcessId(2), c);
  const std::vector<ProcessId> all{ProcessId(0), ProcessId(1), ProcessId(2)};
  for (int i = 1; i <= 20; ++i) {
    const auto m = std::make_shared<core::DataMessage>(
        ProcessId(0), static_cast<std::uint64_t>(i), ViewId(0),
        obs::Annotation::enumerate({static_cast<std::uint64_t>(i)}),
        nullptr);
    wire.multicast(ProcessId(0), all, m, Lane::data);
  }
  sim.run();
  EXPECT_EQ(b.received.size(), 20u);
  EXPECT_EQ(c.received.size(), 20u);
  EXPECT_EQ(wire.stats().refusals, 0u);
  EXPECT_EQ(wire.stats().bytes_sent, wire.stats().bytes_delivered);
  EXPECT_EQ(settle(wire).frames_delivered, 40u);
}

// ---------------------------------------------------------------------------
// cross-backend equivalence
// ---------------------------------------------------------------------------

struct ScenarioResult {
  std::vector<std::vector<std::string>> events;  // per process
  NetworkStats stats;
  UdpLaneStats lane;  // udp backend only
  std::size_t produced = 0;
  // Quiescent-gossip telemetry summed over the surviving nodes: the
  // suppression decisions are part of the protocol schedule, so they must
  // be backend-identical just like the delivery histories.
  std::uint64_t rounds_suppressed = 0;
  std::uint64_t gossip_heartbeats = 0;
  std::uint64_t frontier_piggybacks = 0;
  // Purge-debt ledger telemetry summed over every node: the debt sections
  // of the stability gossip are real wire traffic, and the ledger's wire
  // behaviour is a pure function of the protocol schedule.
  std::uint64_t debts_recorded = 0;
  std::uint64_t debts_collected = 0;
  std::uint64_t debt_entries_gossiped = 0;
  std::uint64_t debt_bytes_gossiped = 0;
  // SWIM runs only: one formatted counter line per surviving detector.
  // Every probe, suspicion and piggybacked update is a deterministic
  // function of the protocol schedule, so the lines must match verbatim
  // across backends.  The totals back the qualitative assertions.
  std::vector<std::string> swim_counters;
  std::uint64_t swim_probes = 0;
  std::uint64_t swim_suspicions = 0;
  std::uint64_t swim_confirms = 0;
  std::uint64_t swim_piggybacked = 0;
};

std::string describe(const Delivery& delivery) {
  std::ostringstream os;
  if (const auto* data = std::get_if<core::DataDelivery>(&delivery)) {
    const auto& m = *data->message;
    os << "D " << m.sender() << "#" << m.seq();
    if (const auto* op =
            dynamic_cast<const workload::ItemOp*>(m.payload().get())) {
      os << " item=" << op->item() << " val=" << op->value()
         << (op->commit() ? " commit" : "");
    }
  } else if (const auto* view = std::get_if<core::ViewDelivery>(&delivery)) {
    os << "V " << view->view;
  } else {
    os << "X " << std::get<core::ExclusionDelivery>(delivery).last_view;
  }
  return os.str();
}

/// Samples the counters of a finished run.  Node 2 crashes mid-run in
/// every scenario, so its gossip and SWIM counters are left out.
void sample(core::Group& group, ScenarioResult& result) {
  result.stats = group.network().stats();
  for (std::size_t i = 0; i < group.size(); ++i) {
    const auto& node_stats = group.node(i).stats();
    result.debts_recorded += node_stats.debts_recorded;
    result.debts_collected += node_stats.debts_collected;
    result.debt_entries_gossiped += node_stats.debt_entries_gossiped;
    result.debt_bytes_gossiped += node_stats.debt_bytes_gossiped;
    if (i == 2) continue;
    result.rounds_suppressed += node_stats.gossip_rounds_suppressed;
    result.gossip_heartbeats += node_stats.gossip_heartbeats;
    result.frontier_piggybacks += node_stats.frontier_piggybacks;
    const auto* detector = group.swim_detector(i);
    if (detector == nullptr) continue;
    const auto& c = detector->counters();
    std::ostringstream os;
    os << "p" << i << " probes=" << c.probes_sent << " acks="
       << c.acks_received << " indirect=" << c.indirect_probes_sent
       << " relayed=" << c.ping_reqs_relayed << " susp=" << c.suspicions
       << " refut=" << c.refutations << " confirm=" << c.confirms
       << " piggy=" << c.updates_piggybacked << " inc="
       << detector->incarnation();
    result.swim_counters.push_back(os.str());
    result.swim_probes += c.probes_sent;
    result.swim_suspicions += c.suspicions;
    result.swim_confirms += c.confirms;
    result.swim_piggybacked += c.updates_piggybacked;
  }
  if (auto* udp = group.udp()) result.lane = settle(*udp);
}

/// Everything the two backends must agree on: every process's
/// application-visible history and every protocol counter, byte for byte.
/// The lane counters (UdpLaneStats) are deliberately excluded: they
/// measure real kernel behaviour and are asserted qualitatively instead.
void expect_equivalent(const ScenarioResult& a, const ScenarioResult& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << "process " << i;
  }
  EXPECT_EQ(a.stats.sent, b.stats.sent);
  EXPECT_EQ(a.stats.delivered, b.stats.delivered);
  EXPECT_EQ(a.stats.bytes_sent, b.stats.bytes_sent);
  EXPECT_EQ(a.stats.bytes_delivered, b.stats.bytes_delivered);
  EXPECT_EQ(a.stats.purged_outgoing, b.stats.purged_outgoing);
  EXPECT_EQ(a.stats.bytes_purged, b.stats.bytes_purged);
  EXPECT_EQ(a.stats.gossip_bytes_saved, b.stats.gossip_bytes_saved);
  EXPECT_EQ(a.stats.injected_duplicates, b.stats.injected_duplicates);
  EXPECT_EQ(a.stats.injected_drops, b.stats.injected_drops);
  EXPECT_EQ(a.stats.injected_pauses, b.stats.injected_pauses);
  EXPECT_EQ(a.stats.injected_losses, b.stats.injected_losses);
  EXPECT_EQ(a.rounds_suppressed, b.rounds_suppressed);
  EXPECT_EQ(a.gossip_heartbeats, b.gossip_heartbeats);
  EXPECT_EQ(a.frontier_piggybacks, b.frontier_piggybacks);
  EXPECT_EQ(a.debts_recorded, b.debts_recorded);
  EXPECT_EQ(a.debts_collected, b.debts_collected);
  EXPECT_EQ(a.debt_entries_gossiped, b.debt_entries_gossiped);
  EXPECT_EQ(a.debt_bytes_gossiped, b.debt_bytes_gossiped);
  EXPECT_EQ(a.swim_counters, b.swim_counters);
}

/// Slow consumer at replica 3, node 2 crashes mid-run (auto-membership
/// excludes it), node 1 later triggers a pure reconfiguration.  The
/// producer retries around flow-control blockage, so sender-side purging,
/// refusals and the view-change flush all fire on both backends.
///
/// Every link carries jitter through the Transport fault hooks.  With
/// `faults`, the crash moves into the plan and the run additionally carries
/// more jitter, a healed partition and data duplication — the injector is
/// rebuilt per run, so both backends see identical fault randomness.
ScenarioResult run_scenario(core::Group::Backend backend,
                            const sim::FaultPlan* faults = nullptr,
                            core::Group::FdKind fd = core::Group::FdKind::oracle) {
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kMessages = 220;
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = kNodes;
  cfg.backend = backend;
  cfg.node.relation = std::make_shared<obs::ItemTagRelation>();
  cfg.node.delivery_capacity = 12;
  cfg.node.out_capacity = 12;
  cfg.auto_membership = true;
  cfg.fd_kind = fd;
  if (fd == core::Group::FdKind::swim) {
    // Fast enough to catch the 150ms crash well before the reconfiguration,
    // slow enough that the healed partition only produces transient
    // suspicion.  The seed pins every shuffle and relay draw.
    cfg.swim.period = sim::Duration::millis(40);
    cfg.swim.direct_timeout = sim::Duration::millis(12);
    cfg.swim.suspicion_periods = 2;
    cfg.swim.seed = 0x5117;
  }
  PlannedFaultInjector injector(test::with_link_jitter(
      faults != nullptr ? *faults
                        : sim::FaultPlan{.seed = 0xfeedface, .faults = {}},
      kNodes, sim::Duration::micros(500)));
  core::Group group(sim, cfg);
  group.network().set_fault_injector(&injector);
  schedule_crashes(sim, group.network(), injector.plan());

  ScenarioResult result;
  result.events.resize(kNodes);

  // Replicas 0..2 consume instantly, replica 3 is the slow one.
  std::vector<std::unique_ptr<workload::InstantConsumer>> instant;
  for (std::size_t i = 0; i + 1 < kNodes; ++i) {
    instant.push_back(
        std::make_unique<workload::InstantConsumer>(sim, group.node(i)));
    instant.back()->set_sink([&result, i](const Delivery& d) {
      result.events[i].push_back(describe(d));
    });
    instant.back()->start();
  }
  workload::RateConsumer slow(sim, group.node(kNodes - 1), 70.0);
  slow.set_sink([&result](const Delivery& d) {
    result.events[kNodes - 1].push_back(describe(d));
  });
  slow.start();

  // Producer: a periodic tick on node 0, retried around flow control.
  // A small hot item set makes most updates obsolete quickly.
  std::function<void()> produce = [&] {
    if (result.produced >= kMessages) return;
    const auto item = static_cast<std::uint64_t>(result.produced % 5);
    const auto payload = std::make_shared<workload::ItemOp>(
        workload::OpKind::update, item, result.produced * 11,
        result.produced, true);
    if (group.node(0)
            .multicast(payload, obs::Annotation::item(item))
            .has_value()) {
      ++result.produced;
    }
    sim.schedule_after(sim::Duration::millis(2), produce);
  };
  sim.schedule_after(sim::Duration::millis(1), produce);

  // One crash (auto-membership excludes it) and one pure reconfiguration.
  // Under a fault plan the crash is the plan's (already scheduled above).
  if (faults == nullptr) {
    sim.schedule_after(sim::Duration::millis(150), [&] { group.crash(2); });
  }
  sim.schedule_after(sim::Duration::millis(600),
                     [&] { group.node(1).request_view_change({}); });

  const auto deadline =
      sim::TimePoint::origin() + sim::Duration::seconds(120.0);
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + sim::Duration::seconds(1.0));
    if (result.produced >= kMessages &&
        group.node(0).delivery_queue_length() == 0 &&
        group.node(1).delivery_queue_length() == 0 &&
        group.node(kNodes - 1).delivery_queue_length() == 0 &&
        group.network().data_backlog(group.pid(0), group.pid(kNodes - 1)) ==
            0) {
      break;
    }
  }

  sample(group, result);
  return result;
}

TEST(CrossBackendEquivalence, IdenticalDeliverySequencesAndByteCounters) {
  const ScenarioResult sim_run = run_scenario(core::Group::Backend::sim);
  ASSERT_EQ(sim_run.produced, 220u) << "sim scenario did not complete";

  // The scenario actually exercised the interesting machinery.
  EXPECT_GT(sim_run.stats.purged_outgoing, 0u);
  EXPECT_GT(sim_run.stats.refusals, 0u);
  std::size_t view_events = 0;
  for (const auto& e : sim_run.events[0]) {
    if (e.rfind("V ", 0) == 0) ++view_events;
  }
  EXPECT_GE(view_events, 3u)  // initial + exclusion + reconfiguration
      << "expected the crash exclusion and the reconfiguration to install";

  // The same scenario where every delivery crossing really traverses the
  // kernel as a UDP datagram.  The synchronous crossing (the virtual clock
  // stands still while the lane transmits, retransmits and acks) makes the
  // protocol history bit-identical to the sim backend's.
  const ScenarioResult udp_run = run_scenario(core::Group::Backend::udp);
  ASSERT_EQ(udp_run.produced, 220u) << "udp scenario did not complete";

  // Application-visible history identical per process, event by event,
  // and the measured byte counters agree: the UDP backend's bytes are
  // counted on real encoded frames, the sim's on wire_size(), the codec's
  // own count — same numbers.
  expect_equivalent(sim_run, udp_run);
  // Every delivered frame really crossed the kernel, reliably.
  EXPECT_GT(udp_run.lane.datagrams_sent, 0u);
  EXPECT_GT(udp_run.lane.frames_delivered, 0u);
  EXPECT_EQ(udp_run.lane.link_resets, 0u);
  EXPECT_EQ(udp_run.lane.malformed_datagrams, 0u);
  EXPECT_EQ(udp_run.lane.stray_datagrams, 0u);
  // Encode-once held across the datagram path too: frames multicast to
  // several receivers are encoded once and reused.
  EXPECT_GT(udp_run.lane.frame_reuses, 0u);
}

/// Per-link jitter onto the slow consumer, a healed symmetric partition
/// isolating node 1, the node-2 crash as a plan entry, probabilistic
/// duplication on a busy link and all-links datagram loss.  Every fault
/// draws from an id-keyed rng stream, so a rebuilt injector replays the
/// same fault schedule on any backend.
sim::FaultPlan nontrivial_fault_plan() {
  sim::FaultPlan plan;
  plan.seed = 0xfa017;
  const auto add = [&plan](sim::FaultSpec f) {
    f.id = static_cast<std::uint32_t>(plan.faults.size());
    plan.faults.push_back(f);
  };
  {
    sim::FaultSpec jitter;
    jitter.kind = sim::FaultKind::link_jitter;
    jitter.a = 0;
    jitter.b = 3;
    jitter.start = sim::TimePoint::at_micros(50'000);
    jitter.end = sim::TimePoint::at_micros(500'000);
    jitter.magnitude = sim::Duration::millis(8);
    add(jitter);
  }
  {
    sim::FaultSpec part;
    part.kind = sim::FaultKind::partition;
    part.side_mask = 0x2;  // {p1} vs the rest
    part.symmetric = true;
    part.start = sim::TimePoint::at_micros(200'000);
    part.end = sim::TimePoint::at_micros(330'000);
    add(part);
  }
  {
    sim::FaultSpec crash;
    crash.kind = sim::FaultKind::crash;
    crash.a = 2;
    crash.start = sim::TimePoint::at_micros(150'000);
    crash.end = crash.start;
    add(crash);
  }
  {
    sim::FaultSpec dup;
    dup.kind = sim::FaultKind::duplicate;
    dup.a = 0;
    dup.b = 1;
    dup.probability = 0.4;
    dup.start = sim::TimePoint::origin();
    dup.end = sim::TimePoint::at_micros(1'000'000);
    add(dup);
  }
  {
    // All-links datagram loss.  In-model it charges a per-lost-transmission
    // recovery delay through the injector (identically on every backend);
    // on the UDP backend the same spec additionally drops real datagrams at
    // the socket boundary, repaired by real retransmissions.
    sim::FaultSpec loss;
    loss.kind = sim::FaultKind::loss;
    loss.a = sim::FaultSpec::kAllLinks;
    loss.probability = 0.1;
    loss.magnitude = sim::Duration::millis(3);
    loss.start = sim::TimePoint::origin();
    loss.end = sim::TimePoint::at_micros(800'000);
    add(loss);
  }
  return plan;
}

TEST(CrossBackendEquivalence, IdenticalUnderNontrivialFaultPlan) {
  // The flagship scenario perturbed through the Transport fault hooks: the
  // injector is rebuilt per run, so the simulated fabric and the UDP
  // backend must produce identical histories and identical measured
  // counters — including the injected-fault counters — even though the
  // loss fault now *really* discards ~10% of the datagrams at the socket
  // boundary and the reliable lane recovers every one of them in real
  // time.
  const sim::FaultPlan plan = nontrivial_fault_plan();
  ASSERT_TRUE(plan.in_model());

  const ScenarioResult sim_run =
      run_scenario(core::Group::Backend::sim, &plan);
  const ScenarioResult udp_run =
      run_scenario(core::Group::Backend::udp, &plan);

  ASSERT_EQ(sim_run.produced, 220u) << "sim scenario did not complete";
  ASSERT_EQ(udp_run.produced, 220u) << "udp scenario did not complete";

  // The faults actually fired.
  EXPECT_GT(sim_run.stats.injected_duplicates, 0u);
  EXPECT_GT(sim_run.stats.injected_losses, 0u);
  EXPECT_GT(sim_run.stats.purged_outgoing, 0u);
  std::size_t view_events = 0;
  for (const auto& e : sim_run.events[0]) {
    if (e.rfind("V ", 0) == 0) ++view_events;
  }
  EXPECT_GE(view_events, 3u);

  // Identical histories and counters, the injected-fault counters and
  // every quiescent-gossip suppression decision included.
  expect_equivalent(sim_run, udp_run);
  // Quiescent gossip engaged under this churn+loss plan: rounds really
  // were suppressed and frontiers really rode on data traffic.
  EXPECT_GT(sim_run.rounds_suppressed, 0u) << "quiescence never engaged";
  EXPECT_GT(sim_run.frontier_piggybacks, 0u) << "no frontier piggybacked";

  // The losses were real and so was the repair: datagrams dropped before
  // sendto, recovered by timeout-driven retransmission, zero protocol loss
  // (the identical histories above are the proof).
  EXPECT_GT(udp_run.lane.injected_losses, 0u);
  EXPECT_GT(udp_run.lane.retransmissions, 0u);
  EXPECT_EQ(udp_run.lane.link_resets, 0u);
}

TEST(CrossBackendEquivalence, SwimFdPinnedUnderChurnAndLoss) {
  // The same churn+loss plan, now with the SWIM detector pinned instead of
  // the oracle: the crash is detected by real ping/ping-req traffic, the
  // healed partition produces transient suspicion, and every one of those
  // control messages is encoded and decoded on the UDP backend.  The
  // view sequences (the "V ..." event lines) and the per-detector
  // probe/suspicion counters must be bit-identical across both backends —
  // any divergence means the swim codec or its timer schedule leaks
  // backend-specific behaviour.
  const sim::FaultPlan plan = nontrivial_fault_plan();
  ASSERT_TRUE(plan.in_model());

  const ScenarioResult sim_run = run_scenario(
      core::Group::Backend::sim, &plan, core::Group::FdKind::swim);
  ASSERT_EQ(sim_run.produced, 220u) << "sim scenario did not complete";

  // SWIM actually drove the membership: the crash was found by probing
  // (suspicion -> confirm -> exclusion), updates spread by piggybacking,
  // and the view history still shows the exclusion and the explicit
  // reconfiguration.
  ASSERT_EQ(sim_run.swim_counters.size(), 3u);
  EXPECT_GT(sim_run.swim_probes, 0u);
  EXPECT_GT(sim_run.swim_suspicions, 0u) << "the crash was never suspected";
  EXPECT_GT(sim_run.swim_confirms, 0u)
      << "no suspicion hardened into a confirm";
  EXPECT_GT(sim_run.swim_piggybacked, 0u)
      << "no membership update disseminated";
  std::size_t view_events = 0;
  for (const auto& e : sim_run.events[0]) {
    if (e.rfind("V ", 0) == 0) ++view_events;
  }
  EXPECT_GE(view_events, 3u)
      << "expected the swim-driven exclusion and the reconfiguration";

  const ScenarioResult udp_run = run_scenario(
      core::Group::Backend::udp, &plan, core::Group::FdKind::swim);
  ASSERT_EQ(udp_run.produced, 220u) << "udp scenario did not complete";
  expect_equivalent(sim_run, udp_run);
  // The swim control traffic really crossed the kernel: pings and acks are
  // datagrams like everything else, and the lane recovered the injected
  // losses without resetting.
  EXPECT_GT(udp_run.lane.datagrams_sent, 0u);
  EXPECT_EQ(udp_run.lane.link_resets, 0u);
  EXPECT_EQ(udp_run.lane.malformed_datagrams, 0u);
}

// ---------------------------------------------------------------------------
// purge-debt gossip equivalence (k-enumeration)
// ---------------------------------------------------------------------------

/// k-enumeration producer on node 0 (BatchComposer singleton batches over a
/// small hot item set), one stalled-then-slow consumer so the outgoing
/// buffer backs up and sender-side purging records debts, a crash excluded
/// by the membership policy mid-run.  The debt sections of the stability
/// gossip are real wire traffic, so both backends must agree on every debt
/// counter byte for byte.
ScenarioResult run_debt_scenario(core::Group::Backend backend) {
  constexpr std::size_t kNodes = 4;
  constexpr std::size_t kMessages = 160;
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = kNodes;
  cfg.backend = backend;
  cfg.node.relation = std::make_shared<obs::KEnumRelation>();
  cfg.node.delivery_capacity = 3;
  cfg.node.out_capacity = 10;
  cfg.auto_membership = true;
  PlannedFaultInjector injector(test::with_link_jitter(
      sim::FaultPlan{.seed = 0xdeb7, .faults = {}}, kNodes,
      sim::Duration::micros(300)));
  core::Group group(sim, cfg);
  group.network().set_fault_injector(&injector);

  ScenarioResult result;
  result.events.resize(kNodes);

  std::vector<std::unique_ptr<workload::InstantConsumer>> instant;
  for (std::size_t i = 0; i + 1 < kNodes; ++i) {
    instant.push_back(
        std::make_unique<workload::InstantConsumer>(sim, group.node(i)));
    instant.back()->set_sink([&result, i](const core::Delivery& d) {
      result.events[i].push_back(describe(d));
    });
    instant.back()->start();
  }
  workload::RateConsumer slow(sim, group.node(kNodes - 1), 45.0);
  slow.set_sink([&result](const core::Delivery& d) {
    result.events[kNodes - 1].push_back(describe(d));
  });
  slow.start();

  // Producer with real k-enum annotations: three hot items cycling, so the
  // slow consumer's backlog always holds purgeable predecessors.  The
  // composer is only advanced when the multicast commits.
  auto composer = std::make_shared<obs::BatchComposer>(
      obs::BatchComposer::Config{obs::AnnotationKind::k_enum, 12, 0});
  std::function<void()> produce = [&sim, &group, &result, composer,
                                   &produce] {
    if (result.produced >= kMessages) return;
    const auto item = static_cast<std::uint64_t>(result.produced % 3);
    const auto payload = std::make_shared<workload::ItemOp>(
        workload::OpKind::update, item, result.produced * 11,
        result.produced, true);
    obs::BatchComposer trial = *composer;
    const auto annotation =
        trial.single(item, group.node(0).next_seq());
    if (group.node(0).multicast(payload, annotation).has_value()) {
      *composer = std::move(trial);
      ++result.produced;
    }
    sim.schedule_after(sim::Duration::millis(2), produce);
  };
  sim.schedule_after(sim::Duration::millis(1), produce);

  sim.schedule_after(sim::Duration::millis(200), [&] { group.crash(2); });

  const auto deadline =
      sim::TimePoint::origin() + sim::Duration::seconds(120.0);
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + sim::Duration::seconds(1.0));
    if (result.produced >= kMessages &&
        group.node(0).delivery_queue_length() == 0 &&
        group.node(kNodes - 1).delivery_queue_length() == 0 &&
        group.network().data_backlog(group.pid(0), group.pid(kNodes - 1)) ==
            0) {
      break;
    }
  }

  sample(group, result);
  return result;
}

TEST(CrossBackendEquivalence, KEnumPurgeDebtGossipIsBackendIdentical) {
  const ScenarioResult sim_run = run_debt_scenario(core::Group::Backend::sim);
  const ScenarioResult udp_run = run_debt_scenario(core::Group::Backend::udp);

  ASSERT_EQ(sim_run.produced, 160u) << "sim scenario did not complete";
  ASSERT_EQ(udp_run.produced, 160u) << "udp scenario did not complete";

  // The machinery under test actually fired: sender-side purges recorded
  // debts, the gossip shipped them, and stability retired them again.
  EXPECT_GT(sim_run.debts_recorded, 0u);
  EXPECT_GT(sim_run.debt_entries_gossiped, 0u);
  EXPECT_GT(sim_run.debt_bytes_gossiped, 0u);
  EXPECT_GT(sim_run.debts_collected, 0u);
  std::size_t view_events = 0;
  for (const auto& e : sim_run.events[0]) {
    if (e.rfind("V ", 0) == 0) ++view_events;
  }
  EXPECT_GE(view_events, 2u) << "the crash exclusion must install";

  // Identical per-process histories and identical debt-gossip counters,
  // whether the stability message moves as a refcounted object or as an
  // encoded datagram.
  expect_equivalent(sim_run, udp_run);
  // The stability gossip and its debt sections really crossed the kernel.
  EXPECT_GT(udp_run.lane.frames_delivered, 0u);
  EXPECT_EQ(udp_run.lane.link_resets, 0u);
  EXPECT_EQ(udp_run.lane.malformed_datagrams, 0u);
}

}  // namespace
}  // namespace svs::net
