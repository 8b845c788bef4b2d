// UDP backend tests: the reliable-delivery lane as a pure state machine
// (ReliableLink), the seeded socket-boundary loss model, the all-local
// group under heavy forced datagram loss (must converge with *zero*
// protocol-level loss and a history bit-identical to the sim backend), an
// SO_RCVBUF-starved kernel-drop stress, and the distributed mode's flood
// recovery, inbound-backpressure machinery (window shrink, zero-window
// probes, resume()) and outgoing hold, which only overwrites wait.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/group.hpp"
#include "core/message.hpp"
#include "link_jitter.hpp"
#include "net/dgram.hpp"
#include "net/fault_injector.hpp"
#include "net/udp.hpp"
#include "net/udp_transport.hpp"
#include "obs/annotation.hpp"
#include "obs/kbitmap.hpp"
#include "obs/relation.hpp"
#include "runtime/real_time.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "workload/consumer.hpp"
#include "workload/item_op.hpp"

namespace svs::net {
namespace {

using core::Delivery;
using core::ViewId;

FramePtr frame_bytes(std::initializer_list<std::uint8_t> bytes) {
  return std::make_shared<const util::Bytes>(bytes);
}

/// A single-frame receive batch (ReliableLink::accept takes the whole
/// batch that rode under one link seq).
std::vector<util::Bytes> one(std::initializer_list<std::uint8_t> bytes) {
  return {util::Bytes(bytes)};
}

ReliableLink::Config small_link(std::uint32_t window, std::int64_t rto_base,
                                std::int64_t rto_max,
                                std::uint32_t max_retries) {
  ReliableLink::Config c;
  c.window = window;
  c.rto_base_us = rto_base;
  c.rto_max_us = rto_max;
  c.max_retries = max_retries;
  return c;
}

// ---------------------------------------------------------------------------
// ReliableLink: sender half
// ---------------------------------------------------------------------------

TEST(ReliableLink, WindowGatingAndCumulativePlusSelectiveAcks) {
  UdpLaneStats stats;
  ReliableLink link(small_link(4, 1'000, 8'000, 10),
                    sim::Rng::stream(1, 1), stats);

  EXPECT_TRUE(link.can_send());
  for (std::uint64_t i = 1; i <= 4; ++i) {
    EXPECT_EQ(link.stage(frame_bytes({std::uint8_t(i)}), 0), i);
  }
  EXPECT_FALSE(link.can_send()) << "window of 4 must gate the 5th frame";
  EXPECT_EQ(link.in_flight(), 4u);
  EXPECT_FALSE(link.all_acked());

  // Cumulative ack retires the prefix.
  AckBlock cum;
  cum.cum = 2;
  cum.window = 4;
  link.on_ack(cum);
  EXPECT_EQ(link.in_flight(), 2u);
  EXPECT_TRUE(link.can_send());
  EXPECT_EQ(link.frames_of(2), nullptr);
  ASSERT_NE(link.frames_of(3), nullptr);

  // Selective ack retires a hole-straddling frame, leaving the hole.
  AckBlock sack;
  sack.cum = 2;
  sack.window = 4;
  sack.sacks.push_back(AckBlock::Range{4, 4});
  link.on_ack(sack);
  EXPECT_EQ(link.in_flight(), 1u);
  ASSERT_NE(link.frames_of(3), nullptr);
  EXPECT_EQ(link.frames_of(4), nullptr);

  // The peer's advertised window co-gates the sender.
  AckBlock closed;
  closed.cum = 3;
  closed.window = 0;
  link.on_ack(closed);
  EXPECT_TRUE(link.all_acked());
  EXPECT_EQ(link.peer_window(), 0u);
  EXPECT_FALSE(link.can_send()) << "zero advertised window closes the link";
}

TEST(ReliableLink, ExponentialBackoffThenDeathAfterRetryBudget) {
  UdpLaneStats stats;
  ReliableLink link(small_link(8, 1'000, 4'000, 3),
                    sim::Rng::stream(2, 7), stats);
  link.stage(frame_bytes({0xaa}), 0);
  // First deadline is base-RTO +/- 25% jitter.
  EXPECT_GE(link.next_deadline(), 750);
  EXPECT_LE(link.next_deadline(), 1'250);

  std::vector<std::uint64_t> due;
  std::int64_t now = 2'000;
  for (std::uint32_t retry = 1; retry <= 3; ++retry) {
    due.clear();
    link.collect_due(now, due);
    ASSERT_EQ(due, std::vector<std::uint64_t>{1}) << "retry " << retry;
    EXPECT_FALSE(link.dead());
    // Backoff doubles up to the cap; jitter stays within +/- 25%.
    const std::int64_t rto =
        std::min<std::int64_t>(1'000 << retry, 4'000);
    EXPECT_GE(link.next_deadline(), now + rto - rto / 4);
    EXPECT_LE(link.next_deadline(), now + rto + rto / 4);
    now += 3 * rto;
  }
  EXPECT_EQ(stats.retransmissions, 3u);

  // The fourth expiry exhausts the budget: link dead, window dropped.
  due.clear();
  link.collect_due(now, due);
  EXPECT_TRUE(due.empty());
  EXPECT_TRUE(link.dead());
  EXPECT_TRUE(link.all_acked());
  EXPECT_FALSE(link.can_send());
  EXPECT_EQ(stats.link_resets, 1u);
}

// ---------------------------------------------------------------------------
// ReliableLink: receiver half
// ---------------------------------------------------------------------------

TEST(ReliableLink, FrontierReorderingAndDuplicateSuppression) {
  UdpLaneStats stats;
  ReliableLink link(small_link(8, 1'000, 8'000, 10),
                    sim::Rng::stream(3, 3), stats);

  // Out-of-order arrival stashes; nothing is ready until the frontier moves.
  EXPECT_TRUE(link.accept(2, one({2})));
  std::uint64_t seq = 0;
  util::Bytes payload;
  EXPECT_FALSE(link.next_ready(seq, payload));
  EXPECT_EQ(link.frontier(), 0u);

  // The gap fill releases the contiguous run, in link order.
  EXPECT_TRUE(link.accept(1, one({1})));
  EXPECT_EQ(link.frontier(), 2u);
  ASSERT_TRUE(link.next_ready(seq, payload));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(payload, util::Bytes{1});
  ASSERT_TRUE(link.next_ready(seq, payload));
  EXPECT_EQ(seq, 2u);

  // Below-frontier and already-stashed seqs are counted duplicates.
  EXPECT_FALSE(link.accept(1, one({1})));
  EXPECT_FALSE(link.accept(2, one({2})));
  EXPECT_TRUE(link.accept(5, one({5})));
  EXPECT_FALSE(link.accept(5, one({5})));
  EXPECT_EQ(stats.duplicate_drops, 3u);

  // Ack state: cumulative frontier plus canonical merged sack ranges.
  EXPECT_TRUE(link.accept(7, one({7})));
  EXPECT_TRUE(link.accept(8, one({8})));
  const AckBlock ack = link.ack_state(16);
  EXPECT_EQ(ack.cum, 2u);
  EXPECT_EQ(ack.window, 16u);
  ASSERT_EQ(ack.sacks.size(), 2u);
  EXPECT_EQ(ack.sacks[0].first, 5u);
  EXPECT_EQ(ack.sacks[0].last, 5u);
  EXPECT_EQ(ack.sacks[1].first, 7u);
  EXPECT_EQ(ack.sacks[1].last, 8u);

  // Filling 3 and 4 drains through the stashed 5 in one contiguous run.
  EXPECT_TRUE(link.accept(4, one({4})));
  EXPECT_TRUE(link.accept(3, one({3})));
  EXPECT_EQ(link.frontier(), 5u);
  for (std::uint64_t want = 3; want <= 5; ++want) {
    ASSERT_TRUE(link.next_ready(seq, payload));
    EXPECT_EQ(seq, want);
    EXPECT_EQ(payload, util::Bytes{static_cast<std::uint8_t>(want)});
  }
}

// ---------------------------------------------------------------------------
// DatagramLossModel
// ---------------------------------------------------------------------------

TEST(DatagramLossModel, SeededPerLinkStreamsAreIndependent) {
  const auto draws = [](DatagramLossModel& m, std::uint32_t from,
                        std::uint32_t to, int n) {
    std::vector<bool> v;
    for (int i = 0; i < n; ++i) v.push_back(m.drop(from, to));
    return v;
  };

  DatagramLossModel a(0x10ad);
  DatagramLossModel b(0x10ad);
  a.set_default_rate(0.3);
  b.set_default_rate(0.3);
  const std::vector<bool> reference = draws(a, 0, 1, 200);
  EXPECT_EQ(reference, draws(b, 0, 1, 200));

  // Interleaving another link's draws never reshuffles the first link's.
  DatagramLossModel c(0x10ad);
  c.set_default_rate(0.3);
  std::vector<bool> interleaved;
  for (int i = 0; i < 200; ++i) {
    (void)c.drop(2, 3);
    interleaved.push_back(c.drop(0, 1));
  }
  EXPECT_EQ(interleaved, reference);

  // Per-link override: lossless links draw nothing, full-rate overrides on
  // one link leave the default links untouched.
  DatagramLossModel d(0x10ad);
  d.set_default_rate(0.0);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(d.drop(4, 5));
  d.set_link_rate(4, 5, 0.9);
  int dropped = 0;
  for (int i = 0; i < 200; ++i) dropped += d.drop(4, 5) ? 1 : 0;
  EXPECT_GT(dropped, 100);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(d.drop(5, 4));
}

// ---------------------------------------------------------------------------
// All-local group: forced loss + kernel-drop stress, vs the sim backend
// ---------------------------------------------------------------------------

std::string describe(const Delivery& delivery) {
  std::ostringstream os;
  if (const auto* data = std::get_if<core::DataDelivery>(&delivery)) {
    const auto& m = *data->message;
    os << "D " << m.sender() << "#" << m.seq();
    if (const auto* op =
            dynamic_cast<const workload::ItemOp*>(m.payload().get())) {
      os << " item=" << op->item() << " val=" << op->value();
    }
  } else if (const auto* view = std::get_if<core::ViewDelivery>(&delivery)) {
    os << "V " << view->view;
  } else {
    os << "X " << std::get<core::ExclusionDelivery>(delivery).last_view;
  }
  return os.str();
}

struct SmallRunResult {
  std::vector<std::vector<std::string>> events;
  NetworkStats stats;
  UdpLaneStats lane;
  std::size_t produced = 0;
  bool converged = false;
};

/// A compact scenario — 3 nodes, 80 messages over a hot item set, one
/// mid-run crash excluded by auto-membership — sized so the udp backend
/// can replay it several times (loss, rcvbuf stress) in one test binary.
SmallRunResult run_small(core::Group::Backend backend, double loss_rate,
                         int rcvbuf_bytes) {
  constexpr std::size_t kNodes = 3;
  constexpr std::size_t kMessages = 80;
  sim::Simulator sim;
  core::Group::Config cfg;
  cfg.size = kNodes;
  cfg.backend = backend;
  cfg.node.relation = std::make_shared<obs::ItemTagRelation>();
  cfg.node.delivery_capacity = 12;
  cfg.node.out_capacity = 12;
  cfg.auto_membership = true;
  cfg.udp_loss_rate = loss_rate;
  cfg.udp_rcvbuf_bytes = rcvbuf_bytes;
  PlannedFaultInjector injector(test::with_link_jitter(
      sim::FaultPlan{.seed = 0xca11, .faults = {}}, kNodes,
      sim::Duration::micros(400)));
  core::Group group(sim, cfg);
  group.network().set_fault_injector(&injector);

  SmallRunResult result;
  result.events.resize(kNodes);
  std::vector<std::unique_ptr<workload::InstantConsumer>> consumers;
  for (std::size_t i = 0; i < kNodes; ++i) {
    consumers.push_back(
        std::make_unique<workload::InstantConsumer>(sim, group.node(i)));
    consumers.back()->set_sink([&result, i](const Delivery& d) {
      result.events[i].push_back(describe(d));
    });
    consumers.back()->start();
  }

  std::function<void()> produce = [&] {
    if (result.produced >= kMessages) return;
    const auto item = static_cast<std::uint64_t>(result.produced % 4);
    const auto payload = std::make_shared<workload::ItemOp>(
        workload::OpKind::update, item, result.produced * 7, result.produced,
        true);
    if (group.node(0)
            .multicast(payload, obs::Annotation::item(item))
            .has_value()) {
      ++result.produced;
    }
    sim.schedule_after(sim::Duration::millis(2), produce);
  };
  sim.schedule_after(sim::Duration::millis(1), produce);
  sim.schedule_after(sim::Duration::millis(90), [&] { group.crash(2); });

  const auto deadline =
      sim::TimePoint::origin() + sim::Duration::seconds(60.0);
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + sim::Duration::seconds(1.0));
    if (result.produced >= kMessages &&
        group.node(0).delivery_queue_length() == 0 &&
        group.node(1).delivery_queue_length() == 0 &&
        group.network().data_backlog(group.pid(0), group.pid(1)) == 0) {
      result.converged = true;
      break;
    }
  }
  result.stats = group.network().stats();
  if (auto* udp = group.udp()) {
    // Drain the shadow wire: every crossing's frame must wire-deliver and
    // byte-verify before the lane counters are meaningful.
    const std::int64_t drain = UdpTransport::mono_us() + 10'000'000;
    while (!udp->links_idle() && UdpTransport::mono_us() < drain) {
      udp->pump(1'000);
    }
    EXPECT_TRUE(udp->links_idle()) << "shadow wire failed to drain";
    result.lane = udp->lane_stats();
  }
  return result;
}

TEST(UdpBackend, HeavyForcedLossConvergesWithZeroProtocolLoss) {
  const SmallRunResult truth = run_small(core::Group::Backend::sim, 0.0, 0);
  ASSERT_TRUE(truth.converged);
  ASSERT_EQ(truth.produced, 80u);

  // 25% of every datagram — data and acks alike — is discarded before
  // sendto.  The lane must repair all of it invisibly: same histories, same
  // protocol counters, demonstrably nonzero repair work.
  const SmallRunResult lossy = run_small(core::Group::Backend::udp, 0.25, 0);
  ASSERT_TRUE(lossy.converged) << "udp backend failed to converge under loss";
  ASSERT_EQ(lossy.produced, 80u);
  for (std::size_t i = 0; i < truth.events.size(); ++i) {
    EXPECT_EQ(truth.events[i], lossy.events[i]) << "process " << i;
  }
  EXPECT_EQ(truth.stats.sent, lossy.stats.sent);
  EXPECT_EQ(truth.stats.delivered, lossy.stats.delivered);
  EXPECT_EQ(truth.stats.bytes_delivered, lossy.stats.bytes_delivered);
  EXPECT_GT(lossy.lane.injected_losses, 0u) << "the loss model never fired";
  EXPECT_GT(lossy.lane.retransmissions, 0u)
      << "loss without retransmission means something else repaired it";
  EXPECT_GT(lossy.lane.frames_delivered, 0u);
  EXPECT_EQ(lossy.lane.link_resets, 0u);
  EXPECT_EQ(lossy.lane.malformed_datagrams, 0u);
}

TEST(UdpBackend, RcvbufStarvedSocketsStillConvergeIdentically) {
  const SmallRunResult truth = run_small(core::Group::Backend::sim, 0.0, 0);
  ASSERT_TRUE(truth.converged);

  // Shrink every socket's SO_RCVBUF to the kernel minimum: bursts now
  // overflow the receive queue and the kernel silently drops datagrams —
  // loss the loss model never sees.  The retransmission lane must not care.
  const SmallRunResult starved = run_small(core::Group::Backend::udp, 0.0, 1);
  ASSERT_TRUE(starved.converged)
      << "udp backend failed to converge with minimal SO_RCVBUF";
  ASSERT_EQ(starved.produced, 80u);
  for (std::size_t i = 0; i < truth.events.size(); ++i) {
    EXPECT_EQ(truth.events[i], starved.events[i]) << "process " << i;
  }
  EXPECT_EQ(truth.stats.delivered, starved.stats.delivered);
  EXPECT_EQ(starved.lane.link_resets, 0u);
}

// ---------------------------------------------------------------------------
// Distributed mode: two real processes-worth of transports in one test
// ---------------------------------------------------------------------------

class Sink final : public Endpoint {
 public:
  bool on_message(ProcessId /*from*/, const MessagePtr& message,
                  Lane /*lane*/) override {
    if (!accept) return false;
    received.push_back(message);
    return true;
  }
  bool accept = true;
  std::vector<MessagePtr> received;
};

MessagePtr numbered_message(std::uint64_t seq) {
  return std::make_shared<core::DataMessage>(
      ProcessId(0), seq, ViewId(0), obs::Annotation::item(seq % 4),
      std::make_shared<workload::ItemOp>(workload::OpKind::update, seq % 4,
                                         seq, seq, true));
}

std::uint64_t seq_of(const MessagePtr& m) {
  return static_cast<const core::DataMessage&>(*m).seq();
}

TEST(UdpDistributed, RcvbufStarvedControlFloodRecoversInOrder) {
  constexpr std::uint64_t kCount = 120;
  sim::Simulator sim_a, sim_b;

  UdpTransport::Config ca;
  ca.bind_local = true;
  ca.link.rto_base_us = 2'000;
  ca.link.rto_max_us = 20'000;
  ca.batch_bytes = 0;  // one datagram per frame: the burst must overflow
  UdpTransport a(sim_a, ca);
  Sink sink_a;
  a.attach(ProcessId(0), sink_a);

  UdpTransport::Config cb;
  cb.bind_local = true;
  cb.rcvbuf_bytes = 4'096;  // the kernel clamps to its minimum
  UdpTransport b(sim_b, cb);
  Sink sink_b;
  b.attach(ProcessId(1), sink_b);

  a.add_peer(ProcessId(1), b.local_port(ProcessId(1)));
  b.add_peer(ProcessId(0), a.local_port(ProcessId(0)));

  // Control lane: never refused, so the whole flood stages at once and the
  // first transmission burst massively overflows b's receive buffer.
  for (std::uint64_t seq = 1; seq <= kCount; ++seq) {
    a.send(ProcessId(0), ProcessId(1), numbered_message(seq), Lane::control);
  }
  sim_a.run();

  const std::int64_t deadline = UdpTransport::mono_us() + 20'000'000;
  while (sink_b.received.size() < kCount &&
         UdpTransport::mono_us() < deadline) {
    b.pump(2'000);
    a.pump(2'000);
  }
  ASSERT_EQ(sink_b.received.size(), kCount)
      << "flood did not fully recover; retransmissions="
      << a.lane_stats().retransmissions;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seq_of(sink_b.received[i]), i + 1) << "out of link order";
  }
  // The kernel really dropped datagrams and the lane really repaired them.
  EXPECT_GT(a.lane_stats().retransmissions, 0u)
      << "a kernel-clamped SO_RCVBUF should have forced drops";
  EXPECT_EQ(a.lane_stats().link_resets, 0u);

  // Once acks settle, nothing is left in flight on either side.
  const std::int64_t drain = UdpTransport::mono_us() + 2'000'000;
  while (!a.links_idle() && UdpTransport::mono_us() < drain) {
    a.pump(2'000);
    b.pump(2'000);
  }
  EXPECT_TRUE(a.links_idle());
}

TEST(UdpDistributed, InboundBackpressureParksProbesAndResumes) {
  constexpr std::uint64_t kCount = 30;
  sim::Simulator sim_a, sim_b;

  UdpTransport::Config ca;
  ca.bind_local = true;
  ca.link.window = 8;
  ca.link.rto_base_us = 2'000;
  ca.link.rto_max_us = 20'000;
  UdpTransport a(sim_a, ca);
  Sink sink_a;
  a.attach(ProcessId(0), sink_a);

  UdpTransport::Config cb = ca;
  UdpTransport b(sim_b, cb);
  Sink sink_b;
  sink_b.accept = false;  // inbound refusal: every data frame parks
  b.attach(ProcessId(1), sink_b);

  a.add_peer(ProcessId(1), b.local_port(ProcessId(1)));
  b.add_peer(ProcessId(0), a.local_port(ProcessId(0)));

  for (std::uint64_t seq = 1; seq <= kCount; ++seq) {
    a.send(ProcessId(0), ProcessId(1), numbered_message(seq), Lane::data);
  }
  sim_a.run();

  // b parks the first window's worth and advertises zero; a's data lane
  // stalls in its inner network and degrades to paced zero-window probing —
  // no drops, no unbounded sends.
  std::int64_t until = UdpTransport::mono_us() + 400'000;
  while (UdpTransport::mono_us() < until) {
    b.pump(1'000);
    a.pump(1'000);
    sim_a.run();
  }
  EXPECT_TRUE(sink_b.received.empty());
  EXPECT_GT(b.lane_stats().inbound_stalls, 0u) << "nothing parked";
  EXPECT_GT(a.lane_stats().zero_window_probes, 0u)
      << "a stalled sender must probe the closed window";
  const std::uint64_t parked_stalls = b.lane_stats().inbound_stalls;
  EXPECT_LE(parked_stalls, ca.link.window)
      << "more frames parked than one advertised window permits";

  // The receiver frees space: resume() drains the parked frames in link
  // order, re-advertises the window, and the stalled inner link flows.
  sink_b.accept = true;
  b.resume(ProcessId(1));
  const std::int64_t deadline = UdpTransport::mono_us() + 20'000'000;
  while (sink_b.received.size() < kCount &&
         UdpTransport::mono_us() < deadline) {
    b.pump(2'000);
    a.pump(2'000);
    sim_a.run();
    if (sink_b.received.size() < kCount) b.resume(ProcessId(1));
  }
  ASSERT_EQ(sink_b.received.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seq_of(sink_b.received[i]), i + 1) << "out of link order";
  }
}

// ---------------------------------------------------------------------------
// Frame batching: link-level batch staging + distributed coalescing
// ---------------------------------------------------------------------------

TEST(ReliableLink, BatchStagingCountsFramesAndDrainsInOrder) {
  UdpLaneStats stats;
  ReliableLink link(small_link(8, 1'000, 8'000, 10),
                    sim::Rng::stream(9, 9), stats);

  // One link seq carries the whole batch; the window is counted in FRAMES,
  // so three batched frames consume three slots.
  std::vector<FramePtr> batch{frame_bytes({1}), frame_bytes({2}),
                              frame_bytes({3})};
  EXPECT_EQ(link.stage(std::move(batch), 0), 1u);
  EXPECT_EQ(link.in_flight(), 3u);
  EXPECT_EQ(link.send_room(), 5u);
  const auto* frames = link.frames_of(1);
  ASSERT_NE(frames, nullptr);
  EXPECT_EQ(frames->size(), 3u);

  // Acking the batch seq retires all of its frames at once.
  AckBlock ack;
  ack.cum = 1;
  ack.window = 8;
  link.on_ack(ack);
  EXPECT_EQ(link.in_flight(), 0u);
  EXPECT_TRUE(link.all_acked());

  // Receiver half: a batch under one seq flattens into per-frame ready
  // entries, in batch order, and the frontier advances once.
  EXPECT_TRUE(link.accept(
      1, std::vector<util::Bytes>{util::Bytes{0xA}, util::Bytes{0xB}}));
  EXPECT_EQ(link.frontier(), 1u);
  std::uint64_t seq = 0;
  util::Bytes payload;
  ASSERT_TRUE(link.next_ready(seq, payload));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(payload, util::Bytes{0xA});
  ASSERT_TRUE(link.next_ready(seq, payload));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(payload, util::Bytes{0xB});
  EXPECT_FALSE(link.next_ready(seq, payload));

  // A re-delivered batch seq is one duplicate, not one per frame.
  EXPECT_FALSE(link.accept(1, one({0xA})));
  EXPECT_EQ(stats.duplicate_drops, 1u);
}

TEST(UdpDistributed, DataLaneBatchesSmallFramesAndDeliversInOrder) {
  constexpr std::uint64_t kCount = 24;
  sim::Simulator sim_a, sim_b;

  UdpTransport::Config ca;
  ca.bind_local = true;
  ca.link.window = 64;
  ca.link.rto_base_us = 2'000;
  ca.link.rto_max_us = 20'000;
  ca.batch_bytes = 1'400;
  ca.batch_delay_us = 200;
  UdpTransport a(sim_a, ca);
  Sink sink_a;
  a.attach(ProcessId(0), sink_a);

  UdpTransport::Config cb;
  cb.bind_local = true;
  UdpTransport b(sim_b, cb);
  Sink sink_b;
  b.attach(ProcessId(1), sink_b);

  a.add_peer(ProcessId(1), b.local_port(ProcessId(1)));
  b.add_peer(ProcessId(0), a.local_port(ProcessId(0)));

  for (std::uint64_t seq = 1; seq <= kCount; ++seq) {
    a.send(ProcessId(0), ProcessId(1), numbered_message(seq), Lane::data);
  }
  sim_a.run();

  const std::int64_t deadline = UdpTransport::mono_us() + 20'000'000;
  while (sink_b.received.size() < kCount &&
         UdpTransport::mono_us() < deadline) {
    a.pump(1'000);
    b.pump(1'000);
  }
  ASSERT_EQ(sink_b.received.size(), kCount);
  for (std::uint64_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(seq_of(sink_b.received[i]), i + 1) << "out of link order";
  }
  // The flood really coalesced: multi-frame batches went out, in strictly
  // fewer flushes than frames, and the trailing partial batch left nothing
  // behind (the deadline flush shipped it).
  const UdpLaneStats lane = a.lane_stats();
  EXPECT_GT(lane.frames_batched, 0u) << "no multi-frame datagram was built";
  EXPECT_GT(lane.batch_flushes, 0u);
  EXPECT_LT(lane.batch_flushes, kCount)
      << "every frame went out alone; batching never engaged";

  const std::int64_t drain = UdpTransport::mono_us() + 2'000'000;
  while (!a.links_idle() && UdpTransport::mono_us() < drain) {
    a.pump(2'000);
    b.pump(2'000);
  }
  EXPECT_TRUE(a.links_idle()) << "a pending batch or unacked frame remains";
}

// ---------------------------------------------------------------------------
// Distributed mode holds only overwrites in the outgoing buffer
// ---------------------------------------------------------------------------

/// Two distributed-mode transports wired to each other: `a` hosts process 0
/// and `b` process 1, each delivering into its Sink.
struct DistributedPair {
  static UdpTransport::Config config() {
    UdpTransport::Config c;
    c.bind_local = true;
    c.link.rto_base_us = 2'000;
    c.link.rto_max_us = 20'000;
    return c;
  }

  DistributedPair() : a(sim_a, config()), b(sim_b, config()) {
    a.attach(ProcessId(0), sink_a);
    b.attach(ProcessId(1), sink_b);
    a.add_peer(ProcessId(1), b.local_port(ProcessId(1)));
    b.add_peer(ProcessId(0), a.local_port(ProcessId(0)));
  }

  /// Pumps both sockets, never touching either virtual clock, until b has
  /// received `count` messages or two seconds of wall time pass.
  bool pump_until_received(std::size_t count) {
    const std::int64_t deadline = UdpTransport::mono_us() + 2'000'000;
    while (sink_b.received.size() < count &&
           UdpTransport::mono_us() < deadline) {
      a.pump(500);
      b.pump(500);
    }
    return sink_b.received.size() == count;
  }

  [[nodiscard]] std::size_t backlog() const {
    return a.data_backlog(ProcessId(0), ProcessId(1));
  }

  sim::Simulator sim_a, sim_b;
  Sink sink_a, sink_b;
  UdpTransport a, b;
};

/// Process 0's k-enumeration write `seq`, naming the predecessors at the
/// given distances, marked held when `held` (as Node::multicast marks an
/// overwrite).
MessagePtr kenum_message(std::uint64_t seq,
                         std::initializer_list<std::size_t> distances,
                         bool held) {
  obs::KBitmap bitmap(8);
  for (const std::size_t d : distances) bitmap.set(d);
  auto m = std::make_shared<core::DataMessage>(
      ProcessId(0), seq, ViewId(0), obs::Annotation::kenum(bitmap),
      std::make_shared<workload::ItemOp>(workload::OpKind::update, 1, seq,
                                         seq, true));
  if (held) m->set_held();
  return m;
}

TEST(UdpDistributed, UnheldTrafficReachesThePeerWithoutVirtualDelay) {
  DistributedPair pair;
  const sim::TimePoint t0 = pair.sim_a.now();
  pair.a.send(ProcessId(0), ProcessId(1), numbered_message(1), Lane::control);
  pair.a.send(ProcessId(0), ProcessId(1), kenum_message(2, {}, false),
              Lane::data);
  // Only what is due at the present instant runs: a's clock never moves,
  // yet both messages reach the reliable lane and cross the wire.
  pair.sim_a.run_until(t0);
  EXPECT_EQ(pair.backlog(), 0u);
  ASSERT_TRUE(pair.pump_until_received(2))
      << "a message waited for virtual time";
  EXPECT_EQ(pair.sim_a.now(), t0);
}

TEST(UdpDistributed, HeldOverwriteWaitsTheDelayAndItsCoverPurgesIt) {
  DistributedPair pair;
  const sim::Duration hold = DistributedPair::config().network.delay;
  ASSERT_GT(hold, sim::Duration::micros(2));
  const sim::TimePoint t0 = pair.sim_a.now();

  // Write 1 names nothing and leaves at once; write 2 overwrites it and is
  // held in the outgoing buffer.
  pair.a.send(ProcessId(0), ProcessId(1), kenum_message(1, {}, false),
              Lane::data);
  pair.a.send(ProcessId(0), ProcessId(1), kenum_message(2, {1}, true),
              Lane::data);
  pair.sim_a.run_until(t0);
  ASSERT_TRUE(pair.pump_until_received(1));
  EXPECT_EQ(pair.backlog(), 1u) << "the overwrite did not wait";

  // Within the hold, write 3 covers write 2, and the sender-side purge that
  // t2 would run (done here by hand) removes it before it costs a datagram.
  pair.sim_a.run_until(t0 + (hold - sim::Duration::micros(1)));
  EXPECT_EQ(pair.backlog(), 1u) << "the hold ended early";
  const sim::TimePoint t1 = pair.sim_a.now();
  pair.a.send(ProcessId(0), ProcessId(1), kenum_message(3, {1, 2}, true),
              Lane::data);
  const auto covered_by_3 = [](const MessagePtr& queued) {
    return seq_of(queued) == 2;
  };
  EXPECT_EQ(pair.a.purge_outgoing(ProcessId(0), covered_by_3), 1u);
  EXPECT_GT(pair.a.stats().bytes_purged, 0u);
  EXPECT_EQ(pair.backlog(), 1u);

  // Write 3 waits its own hold, then crosses.
  pair.sim_a.run_until(t1 + (hold - sim::Duration::micros(1)));
  EXPECT_EQ(pair.backlog(), 1u);
  pair.sim_a.run_until(t1 + hold);
  EXPECT_EQ(pair.backlog(), 0u);
  ASSERT_TRUE(pair.pump_until_received(2));
  EXPECT_EQ(seq_of(pair.sink_b.received[0]), 1u);
  EXPECT_EQ(seq_of(pair.sink_b.received[1]), 3u)
      << "the peer received the purged overwrite";
}

// ---------------------------------------------------------------------------
// Batched kernel I/O: recv rings, partial-send resume, runtime fallback
// ---------------------------------------------------------------------------

/// Pushes every datagram in `payloads` through `tx` toward `port`, retrying
/// from the unsent tail when the kernel blocks.
void send_all(UdpSocket& tx, std::uint16_t port,
              const std::vector<util::Bytes>& payloads) {
  std::vector<OutDatagram> out;
  out.reserve(payloads.size());
  for (const auto& p : payloads) out.emplace_back(port, p.data(), p.size());
  std::span<const OutDatagram> rest(out);
  const std::int64_t deadline = UdpTransport::mono_us() + 5'000'000;
  while (!rest.empty()) {
    std::size_t sent = 0;
    tx.send_batch(rest, sent);
    rest = rest.subspan(sent);
    ASSERT_LT(UdpTransport::mono_us(), deadline) << "kernel never drained";
  }
}

/// Receives exactly `count` datagrams from `rx` through `ring`, in arrival
/// order.
std::vector<util::Bytes> recv_all(UdpSocket& rx, RecvRing& ring,
                                  std::size_t count) {
  std::vector<util::Bytes> got;
  const std::int64_t deadline = UdpTransport::mono_us() + 5'000'000;
  while (got.size() < count && UdpTransport::mono_us() < deadline) {
    const std::size_t n = rx.recv_batch(ring);
    for (std::size_t i = 0; i < n; ++i) {
      const auto span = ring.datagram(i);
      got.emplace_back(span.begin(), span.end());
    }
    if (n == 0) {
      const int fd = rx.fd();
      UdpSocket::wait_readable(std::span<const int>(&fd, 1), 1'000);
    }
  }
  return got;
}

TEST(UdpSocket, RecvBatchRefillsRingUnderBurstLargerThanOneRing) {
  UdpSocket tx, rx;
  RecvRing ring(32);
  constexpr std::size_t kCount = 100;  // > 3 full rings

  std::vector<util::Bytes> payloads;
  payloads.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    util::Bytes p(1 + i % 97);
    for (auto& b : p) b = static_cast<std::uint8_t>(i);
    payloads.push_back(std::move(p));
  }

  send_all(tx, rx.port(), payloads);
  const std::vector<util::Bytes> got = recv_all(rx, ring, kCount);

  // Loopback to one socket is in-order and lossless at these sizes, so the
  // burst must arrive intact and in sequence.
  ASSERT_EQ(got.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(got[i], payloads[i]) << "datagram " << i << " diverged";
  }

  // The whole burst rode the batched paths: far fewer kernel trips than
  // datagrams on both sides, and the mmsg calls are what carried them.
  const IoCounters& t = tx.io_counters();
  const IoCounters& r = rx.io_counters();
  EXPECT_EQ(t.datagrams_sent, kCount);
  EXPECT_EQ(r.datagrams_received, kCount);
  EXPECT_GT(t.mmsg_sends, 0u);
  EXPECT_GT(r.mmsg_recvs, 0u);
  EXPECT_EQ(t.single_sends, 0u);
  EXPECT_EQ(r.single_recvs, 0u);
  EXPECT_LE(t.send_syscalls, kCount / 2) << "sendmmsg never coalesced";
  EXPECT_LE(r.recv_syscalls, kCount / 2) << "recvmmsg never coalesced";
}

TEST(SendQueue, PartialSendResumesFromUnsentTailInOrder) {
  SendQueue q;
  constexpr std::size_t kCount = 10;
  for (std::size_t i = 0; i < kCount; ++i) {
    q.push(static_cast<std::uint16_t>(1'000 + i),
           util::Bytes{static_cast<std::uint8_t>(i)});
  }

  // A sender that accepts three datagrams per call and then blocks, like a
  // kernel whose send buffer keeps filling mid-batch.
  std::vector<std::uint16_t> wire;
  auto choked = [&wire](std::span<const OutDatagram> items,
                        std::size_t& sent) {
    sent = std::min<std::size_t>(3, items.size());
    for (std::size_t i = 0; i < sent; ++i) wire.push_back(items[i].port);
    return false;  // blocked: the tail stays queued
  };

  EXPECT_FALSE(q.flush_with(choked));
  EXPECT_EQ(q.size(), kCount - 3);
  EXPECT_FALSE(q.flush_with(choked));
  EXPECT_FALSE(q.flush_with(choked));
  EXPECT_EQ(q.size(), kCount - 9);

  // The kernel unblocks; the final flush drains the tail.
  auto open = [&wire](std::span<const OutDatagram> items, std::size_t& sent) {
    sent = items.size();
    for (const auto& d : items) wire.push_back(d.port);
    return true;
  };
  EXPECT_TRUE(q.flush_with(open));
  EXPECT_TRUE(q.empty());

  // Every datagram went out exactly once, in push order: partial sends
  // resume from the unsent tail, never reordering or re-sending.
  ASSERT_EQ(wire.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(wire[i], 1'000 + i) << "flush reordered the queue";
  }
}

TEST(SendQueue, OverflowDropsNewestAndCounts) {
  SendQueue q;
  for (std::size_t i = 0; i < SendQueue::kMaxQueue + 5; ++i) {
    q.push(9, util::Bytes{1});
  }
  EXPECT_EQ(q.size(), SendQueue::kMaxQueue);
  EXPECT_EQ(q.overflow_drops(), 5u);
}

TEST(UdpSocket, FallbackPathDeliversIdenticalSequencesAndByteCounts) {
  constexpr std::size_t kCount = 60;
  std::vector<util::Bytes> payloads;
  payloads.reserve(kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    util::Bytes p(1 + (i * 7) % 200);
    for (auto& b : p) b = static_cast<std::uint8_t>(i * 31);
    payloads.push_back(std::move(p));
  }

  struct RunResult {
    std::vector<util::Bytes> got;
    IoCounters tx;
    IoCounters rx;
  };
  auto run = [&payloads](bool use_mmsg) {
    UdpSocket tx, rx;
    tx.set_use_mmsg(use_mmsg);
    rx.set_use_mmsg(use_mmsg);
    RecvRing ring(32);
    send_all(tx, rx.port(), payloads);
    RunResult r;
    r.got = recv_all(rx, ring, payloads.size());
    r.tx = tx.io_counters();
    r.rx = rx.io_counters();
    return r;
  };

  const RunResult batched = run(true);
  const RunResult fallback = run(false);

  // Same datagrams, same order, same totals — the fallback is purely a
  // syscall-shape change, invisible above the socket.
  ASSERT_EQ(batched.got.size(), kCount);
  ASSERT_EQ(fallback.got.size(), kCount);
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(batched.got[i], payloads[i]);
    EXPECT_EQ(fallback.got[i], payloads[i]);
  }
  EXPECT_EQ(batched.tx.datagrams_sent, fallback.tx.datagrams_sent);
  EXPECT_EQ(batched.rx.datagrams_received, fallback.rx.datagrams_received);

  // The counters prove which path each run actually took.
  EXPECT_GT(batched.tx.mmsg_sends, 0u);
  EXPECT_EQ(batched.tx.single_sends, 0u);
  EXPECT_EQ(fallback.tx.mmsg_sends, 0u);
  EXPECT_EQ(fallback.tx.single_sends, kCount);
  EXPECT_GT(fallback.rx.single_recvs, 0u);
  EXPECT_EQ(fallback.rx.mmsg_recvs, 0u);
  EXPECT_LT(batched.tx.send_syscalls, fallback.tx.send_syscalls);
}

TEST(UdpSocket, WaitReadableHonoursMicrosecondDeadlines) {
  UdpSocket s;
  const int fd = s.fd();
  constexpr int kIters = 25;
  constexpr std::int64_t kTimeoutUs = 200;

  std::vector<std::int64_t> waits;
  for (int i = 0; i < kIters; ++i) {
    const std::int64_t start = UdpTransport::mono_us();
    EXPECT_FALSE(UdpSocket::wait_readable(std::span<const int>(&fd, 1),
                                          kTimeoutUs));
    waits.push_back(UdpTransport::mono_us() - start);
  }
  // The median, not the sum: on a loaded host one wait can be preempted
  // for milliseconds, which says nothing about the deadline itself.
  std::nth_element(waits.begin(), waits.begin() + kIters / 2, waits.end());
  const std::int64_t median = waits[kIters / 2];

  // Each idle wait must actually sleep ~200µs: at least 90% of it (no
  // busy-spin) and well below the 1ms a poll()-style millisecond round-up
  // would cost (no ms quantisation).
  EXPECT_GE(median, kTimeoutUs * 9 / 10)
      << "200µs waits returned immediately — the sleep busy-spins";
  EXPECT_LT(median, 600)
      << "200µs waits cost ≥0.6ms each — quantised to milliseconds";
}

// ---------------------------------------------------------------------------
// RealTimeDriver: virtual clock chases wall clock
// ---------------------------------------------------------------------------

TEST(RealTimeDriver, FiresVirtualTimersAtWallPace) {
  sim::Simulator sim;
  UdpTransport::Config cfg;
  cfg.bind_local = true;
  UdpTransport transport(sim, cfg);
  Sink sink;
  transport.attach(ProcessId(0), sink);

  bool fired = false;
  sim.schedule_after(sim::Duration::millis(20), [&] { fired = true; });

  runtime::RealTimeDriver driver(sim, transport);
  const std::int64_t start = UdpTransport::mono_us();
  driver.run(sim::Duration::millis(60), [&] { return fired; });
  const std::int64_t elapsed = UdpTransport::mono_us() - start;

  EXPECT_TRUE(fired) << "a 20ms virtual timer never fired in 60ms of wall";
  EXPECT_GE(elapsed, 19'000) << "virtual time ran ahead of wall time";
  // Virtual never overtakes wall: at exit now() <= elapsed wall time.
  EXPECT_LE((sim.now() - sim::TimePoint::origin()).as_micros(),
            elapsed + 1'000);
}

}  // namespace
}  // namespace svs::net
