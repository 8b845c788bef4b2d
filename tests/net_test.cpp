// Unit tests for the simulated network: FIFO lanes, backpressure, purging.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"
#include "sim/random.hpp"

namespace svs::net {
namespace {

class TestMessage final : public Message {
 public:
  explicit TestMessage(int tag)
      : Message(MessageType::other, static_cast<std::uint64_t>(tag)),
        tag_(tag) {}
  [[nodiscard]] int tag() const { return tag_; }
  [[nodiscard]] std::size_t compute_wire_size() const override { return 4; }

 private:
  int tag_;
};

int tag_of(const MessagePtr& m) {
  return std::dynamic_pointer_cast<const TestMessage>(m)->tag();
}

class Sink final : public Endpoint {
 public:
  bool on_message(ProcessId from, const MessagePtr& message,
                  Lane lane) override {
    if (lane == Lane::data && !accept_data) {
      ++refused;
      return false;
    }
    received.push_back({from, message, lane});
    return true;
  }

  struct Rec {
    ProcessId from;
    MessagePtr message;
    Lane lane;
  };
  std::vector<Rec> received;
  int refused = 0;
  bool accept_data = true;
};

struct NetFixture : ::testing::Test {
  NetFixture() : network(sim, {}) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      network.attach(ProcessId(i), sinks[i]);
    }
  }
  MessagePtr msg(int tag) { return std::make_shared<TestMessage>(tag); }

  sim::Simulator sim;
  Sink sinks[3];
  net::Network network;
};

TEST_F(NetFixture, DeliversWithDelay) {
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  EXPECT_TRUE(sinks[1].received.empty());
  sim.run();
  ASSERT_EQ(sinks[1].received.size(), 1u);
  EXPECT_EQ(sim.now(), sim::TimePoint::origin() + sim::Duration::millis(1));
  EXPECT_EQ(sinks[1].received[0].from, ProcessId(0));
}

TEST_F(NetFixture, FifoPerLane) {
  for (int i = 0; i < 20; ++i) {
    network.send(ProcessId(0), ProcessId(1), msg(i), Lane::data);
  }
  sim.run();
  ASSERT_EQ(sinks[1].received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(tag_of(sinks[1].received[i].message), i);
  }
}

TEST_F(NetFixture, SelfSendWorks) {
  network.send(ProcessId(0), ProcessId(0), msg(7), Lane::control);
  sim.run();
  ASSERT_EQ(sinks[0].received.size(), 1u);
  EXPECT_EQ(tag_of(sinks[0].received[0].message), 7);
}

TEST_F(NetFixture, RefusedDataStallsUntilResume) {
  sinks[1].accept_data = false;
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  network.send(ProcessId(0), ProcessId(1), msg(2), Lane::data);
  sim.run();
  EXPECT_TRUE(sinks[1].received.empty());
  EXPECT_EQ(sinks[1].refused, 1);  // only the head is attempted
  EXPECT_EQ(network.data_backlog(ProcessId(0), ProcessId(1)), 2u);

  sinks[1].accept_data = true;
  network.resume(ProcessId(1));
  sim.run();
  ASSERT_EQ(sinks[1].received.size(), 2u);
  EXPECT_EQ(tag_of(sinks[1].received[0].message), 1);
  EXPECT_EQ(tag_of(sinks[1].received[1].message), 2);
  EXPECT_EQ(network.data_backlog(ProcessId(0), ProcessId(1)), 0u);
}

TEST_F(NetFixture, ControlOvertakesStalledData) {
  sinks[1].accept_data = false;
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  network.send(ProcessId(0), ProcessId(1), msg(2), Lane::control);
  sim.run();
  ASSERT_EQ(sinks[1].received.size(), 1u);
  EXPECT_EQ(sinks[1].received[0].lane, Lane::control);
}

TEST_F(NetFixture, CrashedSenderSendsNothing) {
  network.crash(ProcessId(0));
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  sim.run();
  EXPECT_TRUE(sinks[1].received.empty());
  EXPECT_EQ(network.stats().sent, 0u);
}

TEST_F(NetFixture, MessagesInFlightAtCrashOfSenderStillArrive) {
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  network.crash(ProcessId(0));
  sim.run();
  EXPECT_EQ(sinks[1].received.size(), 1u);
}

TEST_F(NetFixture, DataToCrashedReceiverStallsInBuffer) {
  network.crash(ProcessId(1));
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  sim.run();
  EXPECT_TRUE(sinks[1].received.empty());
  // A reliable protocol keeps unacknowledged data buffered.
  EXPECT_EQ(network.data_backlog(ProcessId(0), ProcessId(1)), 1u);
}

TEST_F(NetFixture, ControlToCrashedReceiverIsDropped) {
  network.crash(ProcessId(1));
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::control);
  sim.run();
  EXPECT_TRUE(sinks[1].received.empty());
  EXPECT_EQ(network.stats().dropped_to_crashed, 1u);
}

TEST_F(NetFixture, CrashObserversFire) {
  ProcessId crashed;
  network.subscribe_crash([&](ProcessId p, sim::TimePoint) { crashed = p; });
  network.crash(ProcessId(2));
  EXPECT_EQ(crashed, ProcessId(2));
  EXPECT_TRUE(network.is_crashed(ProcessId(2)));
  EXPECT_TRUE(network.crash_time(ProcessId(2)).has_value());
  EXPECT_FALSE(network.crash_time(ProcessId(0)).has_value());
}

TEST_F(NetFixture, PurgeOutgoingRemovesMatching) {
  sinks[1].accept_data = false;
  for (int i = 0; i < 5; ++i) {
    network.send(ProcessId(0), ProcessId(1), msg(i), Lane::data);
  }
  sim.run();  // head attempted and stalled
  const auto removed =
      network.purge_outgoing(ProcessId(0), [](const MessagePtr& m) {
        return tag_of(m) % 2 == 0;  // purge 0, 2, 4
      });
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(network.data_backlog(ProcessId(0), ProcessId(1)), 2u);
  EXPECT_EQ(network.stats().purged_outgoing, 3u);

  sinks[1].accept_data = true;
  network.resume(ProcessId(1));
  sim.run();
  ASSERT_EQ(sinks[1].received.size(), 2u);
  EXPECT_EQ(tag_of(sinks[1].received[0].message), 1);
  EXPECT_EQ(tag_of(sinks[1].received[1].message), 3);
}

TEST_F(NetFixture, PurgingScheduledHeadStillDeliversRest) {
  // Purge the head while its arrival event is pending; the next message
  // must still be delivered.
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  network.send(ProcessId(0), ProcessId(1), msg(2), Lane::data);
  const auto removed = network.purge_outgoing(
      ProcessId(0), [](const MessagePtr& m) { return tag_of(m) == 1; });
  EXPECT_EQ(removed, 1u);
  sim.run();
  ASSERT_EQ(sinks[1].received.size(), 1u);
  EXPECT_EQ(tag_of(sinks[1].received[0].message), 2);
}

TEST_F(NetFixture, DropOutgoingIsNotCountedAsPurged) {
  sinks[1].accept_data = false;
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  sim.run();
  const auto removed =
      network.drop_outgoing(ProcessId(0), [](const MessagePtr&) { return true; });
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(network.stats().purged_outgoing, 0u);
}

TEST_F(NetFixture, BacklogDrainObserverFires) {
  int drains = 0;
  network.subscribe_backlog_drain(ProcessId(0), [&] { ++drains; });
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  sim.run();
  EXPECT_EQ(drains, 1);
  network.purge_outgoing(ProcessId(0), [](const MessagePtr&) { return true; });
  EXPECT_EQ(drains, 1);  // nothing queued; no notification
}

TEST_F(NetFixture, LinkSlowdownDelaysDelivery) {
  network.set_link_slowdown(ProcessId(0), ProcessId(1),
                            sim::Duration::millis(50));
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  network.send(ProcessId(0), ProcessId(2), msg(2), Lane::data);
  sim.run_until(sim::TimePoint::origin() + sim::Duration::millis(10));
  EXPECT_TRUE(sinks[1].received.empty());
  EXPECT_EQ(sinks[2].received.size(), 1u);  // other link unaffected
  sim.run();
  EXPECT_EQ(sinks[1].received.size(), 1u);
}

TEST_F(NetFixture, DoubleAttachRejected) {
  Sink extra;
  EXPECT_THROW(network.attach(ProcessId(0), extra), util::ContractViolation);
}

TEST_F(NetFixture, SendToUnknownRejected) {
  EXPECT_THROW(network.send(ProcessId(0), ProcessId(9), msg(1), Lane::data),
               util::ContractViolation);
}

TEST_F(NetFixture, StatsCount) {
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  network.send(ProcessId(1), ProcessId(2), msg(2), Lane::control);
  sim.run();
  EXPECT_EQ(network.stats().sent, 2u);
  EXPECT_EQ(network.stats().delivered, 2u);
}

// ---------------------------------------------------------------------------
// dense registry + multicast fan-out
// ---------------------------------------------------------------------------

TEST_F(NetFixture, MulticastSkipsSelfAndReachesEveryDestination) {
  const std::vector<ProcessId> all{ProcessId(0), ProcessId(1), ProcessId(2)};
  network.multicast(ProcessId(0), all, msg(5), Lane::data);
  sim.run();
  EXPECT_TRUE(sinks[0].received.empty());  // self skipped by default
  ASSERT_EQ(sinks[1].received.size(), 1u);
  ASSERT_EQ(sinks[2].received.size(), 1u);
  EXPECT_EQ(tag_of(sinks[1].received[0].message), 5);
  EXPECT_EQ(network.stats().sent, 2u);
}

TEST_F(NetFixture, MulticastWithoutSkipSelfDeliversLoopback) {
  const std::vector<ProcessId> all{ProcessId(0), ProcessId(1), ProcessId(2)};
  network.multicast(ProcessId(0), all, msg(6), Lane::control,
                    /*skip_self=*/false);
  sim.run();
  ASSERT_EQ(sinks[0].received.size(), 1u);  // loopback copy included
  EXPECT_EQ(sinks[1].received.size(), 1u);
  EXPECT_EQ(sinks[2].received.size(), 1u);
}

TEST_F(NetFixture, MulticastFromCrashedSenderIsNoop) {
  network.crash(ProcessId(0));
  const std::vector<ProcessId> all{ProcessId(0), ProcessId(1), ProcessId(2)};
  network.multicast(ProcessId(0), all, msg(7), Lane::data);
  sim.run();
  EXPECT_EQ(network.stats().sent, 0u);
}

TEST_F(NetFixture, MulticastMatchesSendLoopOrdering) {
  // The fan-out must be byte-equivalent to a send() loop: same per-link
  // FIFO contents, same delivery times.
  sim::Simulator s2;
  Network n2(s2, {});
  Sink other[3];
  for (std::uint32_t i = 0; i < 3; ++i) n2.attach(ProcessId(i), other[i]);

  const std::vector<ProcessId> all{ProcessId(0), ProcessId(1), ProcessId(2)};
  for (int i = 0; i < 10; ++i) {
    network.multicast(ProcessId(0), all, msg(i), Lane::data);
    for (const auto to : all) {
      if (to != ProcessId(0)) {
        n2.send(ProcessId(0), to, std::make_shared<TestMessage>(i),
                Lane::data);
      }
    }
  }
  sim.run();
  s2.run();
  for (int r = 1; r < 3; ++r) {
    ASSERT_EQ(sinks[r].received.size(), other[r].received.size());
    for (std::size_t i = 0; i < sinks[r].received.size(); ++i) {
      EXPECT_EQ(tag_of(sinks[r].received[i].message),
                tag_of(other[r].received[i].message));
    }
  }
  EXPECT_EQ(sim.executed(), s2.executed());
}

TEST_F(NetFixture, AttachReStridePreservesQueuedTraffic) {
  // Attaching a new process re-strides the flat link table; messages
  // already queued (and their delivery timers) must survive.
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  Sink late;
  network.attach(ProcessId(3), late);
  network.send(ProcessId(0), ProcessId(3), msg(2), Lane::data);
  sim.run();
  ASSERT_EQ(sinks[1].received.size(), 1u);
  EXPECT_EQ(tag_of(sinks[1].received[0].message), 1);
  ASSERT_EQ(late.received.size(), 1u);
  EXPECT_EQ(tag_of(late.received[0].message), 2);
}

// ---------------------------------------------------------------------------
// windowed sender-side purging
// ---------------------------------------------------------------------------

TEST_F(NetFixture, WindowedPurgeRemovesOnlyTheWindow) {
  sinks[1].accept_data = false;
  for (int i = 1; i <= 8; ++i) {
    network.send(ProcessId(0), ProcessId(1), msg(i), Lane::data);
  }
  sim.run();  // head attempted and stalled
  // Window [3, 6): candidates 3, 4, 5; victims all of them.
  const auto removed = network.purge_outgoing_window(
      ProcessId(0), ProcessId(1), 3, 6,
      [](const MessagePtr&) { return true; });
  EXPECT_EQ(removed, 3u);
  EXPECT_EQ(network.stats().purge_window_scanned, 3u);
  EXPECT_EQ(network.data_backlog(ProcessId(0), ProcessId(1)), 5u);

  sinks[1].accept_data = true;
  network.resume(ProcessId(1));
  sim.run();
  ASSERT_EQ(sinks[1].received.size(), 5u);
  const int expect[] = {1, 2, 6, 7, 8};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(tag_of(sinks[1].received[i].message), expect[i]);
  }
}

TEST_F(NetFixture, CountOutgoingWindowDoesNotRemove) {
  sinks[1].accept_data = false;
  for (int i = 1; i <= 6; ++i) {
    network.send(ProcessId(0), ProcessId(1), msg(i), Lane::data);
  }
  sim.run();
  const auto counted = network.count_outgoing_window(
      ProcessId(0), ProcessId(1), 2, 5,
      [](const MessagePtr& m) { return tag_of(m) % 2 == 0; });
  EXPECT_EQ(counted, 2u);  // 2 and 4 within [2, 5)
  EXPECT_EQ(network.data_backlog(ProcessId(0), ProcessId(1)), 6u);
  EXPECT_EQ(network.stats().purged_outgoing, 0u);
}

TEST_F(NetFixture, WindowedPurgeOfScheduledHeadStillDeliversRest) {
  network.send(ProcessId(0), ProcessId(1), msg(1), Lane::data);
  network.send(ProcessId(0), ProcessId(1), msg(2), Lane::data);
  const auto removed = network.purge_outgoing_window(
      ProcessId(0), ProcessId(1), 1, 2,
      [](const MessagePtr&) { return true; });
  EXPECT_EQ(removed, 1u);
  sim.run();
  ASSERT_EQ(sinks[1].received.size(), 1u);
  EXPECT_EQ(tag_of(sinks[1].received[0].message), 2);
}

TEST(NetPurgeEquivalence, WindowedMatchesFullScanRandomized) {
  // The windowed purge (binary-searched [floor, below) subrange) and the
  // reference full-deque scan with the equivalent predicate must remove the
  // same victims and deliver the same survivors, for arbitrary windows and
  // victim sets — mirroring the delivery-queue equivalence test.
  svs::sim::Rng rng(0x5eed5eedULL);
  const auto next_random = [&rng] { return rng.next_u64(); };
  for (int round = 0; round < 60; ++round) {
    sim::Simulator sim_a, sim_b;
    Network net_a(sim_a, {});
    Network net_b(sim_b, {});
    Sink producer_a, consumer_a, producer_b, consumer_b;
    net_a.attach(ProcessId(0), producer_a);
    net_a.attach(ProcessId(1), consumer_a);
    net_b.attach(ProcessId(0), producer_b);
    net_b.attach(ProcessId(1), consumer_b);
    consumer_a.accept_data = false;
    consumer_b.accept_data = false;

    const int count = 1 + static_cast<int>(next_random() % 50);
    for (int seq = 1; seq <= count; ++seq) {
      net_a.send(ProcessId(0), ProcessId(1), std::make_shared<TestMessage>(seq),
                 Lane::data);
      net_b.send(ProcessId(0), ProcessId(1), std::make_shared<TestMessage>(seq),
                 Lane::data);
    }
    sim_a.run();
    sim_b.run();

    const std::uint64_t floor_key = next_random() % (count + 2);
    const std::uint64_t below_key =
        floor_key + next_random() % (count + 2 - floor_key);
    std::vector<bool> is_victim(count + 1, false);
    for (int seq = 1; seq <= count; ++seq) is_victim[seq] = next_random() % 3 == 0;

    const auto removed_windowed = net_a.purge_outgoing_window(
        ProcessId(0), ProcessId(1), floor_key, below_key,
        [&](const MessagePtr& m) { return is_victim[tag_of(m)]; });
    const auto removed_full = net_b.purge_outgoing(
        ProcessId(0), [&](const MessagePtr& m) {
          const auto key = static_cast<std::uint64_t>(tag_of(m));
          return key >= floor_key && key < below_key && is_victim[tag_of(m)];
        });
    ASSERT_EQ(removed_windowed, removed_full) << "round " << round;

    consumer_a.accept_data = true;
    consumer_b.accept_data = true;
    net_a.resume(ProcessId(1));
    net_b.resume(ProcessId(1));
    sim_a.run();
    sim_b.run();
    ASSERT_EQ(consumer_a.received.size(), consumer_b.received.size())
        << "round " << round;
    for (std::size_t i = 0; i < consumer_a.received.size(); ++i) {
      ASSERT_EQ(tag_of(consumer_a.received[i].message),
                tag_of(consumer_b.received[i].message))
          << "round " << round;
    }
  }
}

}  // namespace
}  // namespace svs::net
