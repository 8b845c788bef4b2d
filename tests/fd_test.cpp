// Unit tests for the failure detectors.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "fd/heartbeat.hpp"
#include "fd/oracle.hpp"
#include "fd/swim.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace svs::fd {
namespace {

class NullSink final : public net::Endpoint {
 public:
  bool on_message(net::ProcessId, const net::MessagePtr&,
                  net::Lane) override {
    return true;
  }
};

struct OracleFixture : ::testing::Test {
  OracleFixture() : network(sim, {}) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      network.attach(net::ProcessId(i), sinks[i]);
    }
  }
  sim::Simulator sim;
  NullSink sinks[3];
  net::Network network;
};

TEST_F(OracleFixture, NoSuspicionWithoutCrash) {
  OracleDetector fd(sim, network, net::ProcessId(0), sim::Duration::millis(30));
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(1.0));
  EXPECT_FALSE(fd.suspects(net::ProcessId(1)));
  EXPECT_FALSE(fd.suspects(net::ProcessId(2)));
}

TEST_F(OracleFixture, SuspectsAfterDetectionDelay) {
  OracleDetector fd(sim, network, net::ProcessId(0), sim::Duration::millis(30));
  network.crash(net::ProcessId(1));
  sim.run_until(sim.now() + sim::Duration::millis(29));
  EXPECT_FALSE(fd.suspects(net::ProcessId(1)));
  sim.run_until(sim.now() + sim::Duration::millis(2));
  EXPECT_TRUE(fd.suspects(net::ProcessId(1)));
  EXPECT_FALSE(fd.suspects(net::ProcessId(2)));
}

TEST_F(OracleFixture, OwnerNeverSuspectsItself) {
  OracleDetector fd(sim, network, net::ProcessId(0), sim::Duration::zero());
  network.crash(net::ProcessId(0));
  sim.run();
  EXPECT_FALSE(fd.suspects(net::ProcessId(0)));
}

TEST_F(OracleFixture, ListenersNotifiedOnce) {
  OracleDetector fd(sim, network, net::ProcessId(0), sim::Duration::millis(5));
  int notifications = 0;
  fd.subscribe([&] { ++notifications; });
  network.crash(net::ProcessId(1));
  sim.run();
  EXPECT_EQ(notifications, 1);
}

struct HeartbeatFixture : ::testing::Test {
  static constexpr std::uint32_t kN = 3;

  HeartbeatFixture() : network(sim, {}) {
    for (std::uint32_t i = 0; i < kN; ++i) {
      network.attach(net::ProcessId(i), routers_[i]);
    }
    for (std::uint32_t i = 0; i < kN; ++i) {
      std::vector<net::ProcessId> peers;
      for (std::uint32_t j = 0; j < kN; ++j) {
        if (j != i) peers.push_back(net::ProcessId(j));
      }
      detectors_[i] = std::make_unique<HeartbeatDetector>(
          sim, network, net::ProcessId(i), peers, config_);
      routers_[i].detector = detectors_[i].get();
    }
    for (auto& d : detectors_) d->start();
  }

  struct Router final : net::Endpoint {
    bool on_message(net::ProcessId from, const net::MessagePtr& message,
                    net::Lane) override {
      if (std::dynamic_pointer_cast<const HeartbeatMessage>(message)) {
        detector->on_heartbeat(from);
      }
      return true;
    }
    HeartbeatDetector* detector = nullptr;
  };

  sim::Simulator sim;
  net::Network network;
  HeartbeatDetector::Config config_{
      .interval = sim::Duration::millis(20),
      .initial_timeout = sim::Duration::millis(100),
      .max_timeout = sim::Duration::seconds(5.0)};
  Router routers_[kN];
  std::unique_ptr<HeartbeatDetector> detectors_[kN];
};

TEST_F(HeartbeatFixture, NoSuspicionsInHealthyRuns) {
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(3.0));
  for (std::uint32_t i = 0; i < kN; ++i) {
    for (std::uint32_t j = 0; j < kN; ++j) {
      if (i != j) {
        EXPECT_FALSE(detectors_[i]->suspects(net::ProcessId(j)))
            << i << " suspects " << j;
      }
    }
  }
}

TEST_F(HeartbeatFixture, CrashedPeerEventuallySuspected) {
  sim.run_until(sim::TimePoint::origin() + sim::Duration::seconds(1.0));
  network.crash(net::ProcessId(2));
  sim.run_until(sim.now() + sim::Duration::millis(200));
  EXPECT_TRUE(detectors_[0]->suspects(net::ProcessId(2)));
  EXPECT_TRUE(detectors_[1]->suspects(net::ProcessId(2)));
  EXPECT_FALSE(detectors_[0]->suspects(net::ProcessId(1)));
}

TEST_F(HeartbeatFixture, FalseSuspicionRevokedAndTimeoutWidened) {
  const auto before = detectors_[0]->timeout_of(net::ProcessId(1));
  // Delay 1 -> 0 heartbeats long enough to trip the timeout, then recover.
  network.set_link_slowdown(net::ProcessId(1), net::ProcessId(0),
                            sim::Duration::millis(300));
  sim.run_until(sim.now() + sim::Duration::millis(150));
  EXPECT_TRUE(detectors_[0]->suspects(net::ProcessId(1)));

  network.set_link_slowdown(net::ProcessId(1), net::ProcessId(0),
                            sim::Duration::zero());
  sim.run_until(sim.now() + sim::Duration::millis(500));
  EXPECT_FALSE(detectors_[0]->suspects(net::ProcessId(1)));
  EXPECT_GT(detectors_[0]->timeout_of(net::ProcessId(1)), before);
}

TEST_F(HeartbeatFixture, TimeoutCappedAtMax) {
  // Repeated false suspicions must not push the timeout past max_timeout.
  for (int round = 0; round < 12; ++round) {
    network.set_link_slowdown(net::ProcessId(1), net::ProcessId(0),
                              sim::Duration::seconds(6.0));
    sim.run_until(sim.now() + sim::Duration::seconds(6.0));
    network.set_link_slowdown(net::ProcessId(1), net::ProcessId(0),
                              sim::Duration::zero());
    sim.run_until(sim.now() + sim::Duration::seconds(7.0));
  }
  EXPECT_LE(detectors_[0]->timeout_of(net::ProcessId(1)),
            sim::Duration::seconds(5.0));
}

TEST(HeartbeatConfig, RejectsBadParameters) {
  sim::Simulator sim;
  net::Network network(sim, {});
  NullSink sink;
  network.attach(net::ProcessId(0), sink);
  HeartbeatDetector::Config bad;
  bad.interval = sim::Duration::millis(50);
  bad.initial_timeout = sim::Duration::millis(10);  // must exceed interval
  EXPECT_THROW(HeartbeatDetector(sim, network, net::ProcessId(0),
                                 {net::ProcessId(1)}, bad),
               util::ContractViolation);
}

/// A complete SWIM deployment on the simulated network: one detector per
/// process, routers that hand swim_* traffic to the local detector and keep
/// every ack they see (so tests can inspect piggyback sections on the wire).
struct SwimHarness {
  struct Router final : net::Endpoint {
    bool on_message(net::ProcessId from, const net::MessagePtr& message,
                    net::Lane) override {
      if (message->type() == net::MessageType::swim_ack) {
        acks.push_back(std::static_pointer_cast<const SwimAckMessage>(message));
      }
      if (detector != nullptr) detector->on_message(from, message);
      return true;
    }
    SwimDetector* detector = nullptr;
    std::vector<std::shared_ptr<const SwimAckMessage>> acks;
  };

  SwimHarness(std::uint32_t n, SwimDetector::Config config, bool start = true)
      : network(sim, {}), routers(n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      network.attach(net::ProcessId(i), routers[i]);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      std::vector<net::ProcessId> peers;
      for (std::uint32_t j = 0; j < n; ++j) {
        if (j != i) peers.push_back(net::ProcessId(j));
      }
      detectors.push_back(std::make_unique<SwimDetector>(
          sim, network, net::ProcessId(i), peers, config));
      routers[i].detector = detectors.back().get();
    }
    if (start) {
      for (auto& d : detectors) d->start();
    }
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + sim::Duration::seconds(seconds));
  }

  sim::Simulator sim;
  net::Network network;
  std::deque<Router> routers;  // stable addresses across attach()
  std::vector<std::unique_ptr<SwimDetector>> detectors;
};

SwimDetector::Config swim_config() {
  SwimDetector::Config config;
  config.period = sim::Duration::millis(20);
  config.direct_timeout = sim::Duration::millis(6);
  config.suspicion_periods = 2;
  config.seed = 77;
  return config;
}

TEST(SwimDetectorTest, HealthyGroupProbesWithoutSuspicion) {
  SwimHarness h(4, swim_config());
  h.run_for(0.5);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_GT(h.detectors[i]->counters().probes_sent, 0u);
    EXPECT_GT(h.detectors[i]->counters().acks_received, 0u);
    EXPECT_EQ(h.detectors[i]->counters().suspicions, 0u);
    for (std::uint32_t j = 0; j < 4; ++j) {
      if (i != j) {
        EXPECT_FALSE(h.detectors[i]->suspects(net::ProcessId(j)));
      }
    }
  }
}

TEST(SwimDetectorTest, CrashTriggersIndirectProbesThenSuspicionThenConfirm) {
  SwimHarness h(4, swim_config());
  h.run_for(0.2);
  h.network.crash(net::ProcessId(3));
  // Worst case: probed on the last slot of a 3-peer cycle (60ms), then the
  // direct timeout, the k ping-reqs, and two suspicion periods (40ms).
  h.run_for(0.5);
  std::uint64_t indirect = 0;
  std::uint64_t relayed = 0;
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(h.detectors[i]->suspects(net::ProcessId(3))) << i;
    EXPECT_TRUE(h.detectors[i]->confirmed(net::ProcessId(3))) << i;
    indirect += h.detectors[i]->counters().indirect_probes_sent;
    relayed += h.detectors[i]->counters().ping_reqs_relayed;
    for (std::uint32_t j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_FALSE(h.detectors[i]->suspects(net::ProcessId(j)));
      }
    }
  }
  // The first prober to time out asked k live relays; they obliged.
  EXPECT_GE(indirect, 2u);
  EXPECT_GE(relayed, 1u);
}

TEST(SwimDetectorTest, IncarnationOverrideRules) {
  SwimHarness h(3, swim_config(), /*start=*/false);
  auto& fd = *h.detectors[0];
  const net::ProcessId p1(1);
  const net::ProcessId p2(2);
  const auto deliver = [&](SwimUpdate update) {
    fd.on_message(p1, std::make_shared<SwimPingMessage>(
                          /*nonce=*/99, SwimUpdates{update}));
  };

  // suspect(i) beats alive(i); alive must strictly exceed it to refute.
  deliver({p2, SwimUpdate::Status::suspect, 0});
  EXPECT_TRUE(fd.suspects(p2));
  deliver({p2, SwimUpdate::Status::alive, 0});
  EXPECT_TRUE(fd.suspects(p2));
  deliver({p2, SwimUpdate::Status::alive, 1});
  EXPECT_FALSE(fd.suspects(p2));
  EXPECT_EQ(fd.counters().refutations, 1u);

  // Confirm is sticky against same-incarnation gossip but yields to the
  // member's own higher-incarnation refutation.
  deliver({p2, SwimUpdate::Status::confirm, 1});
  EXPECT_TRUE(fd.confirmed(p2));
  deliver({p2, SwimUpdate::Status::alive, 1});
  EXPECT_TRUE(fd.confirmed(p2));
  deliver({p2, SwimUpdate::Status::suspect, 5});
  EXPECT_TRUE(fd.confirmed(p2));
  deliver({p2, SwimUpdate::Status::alive, 2});
  EXPECT_FALSE(fd.suspects(p2));
  EXPECT_EQ(fd.incarnation_of(p2), 2u);
}

TEST(SwimDetectorTest, SelfSuspicionRefutedByIncarnationBump) {
  SwimHarness h(3, swim_config(), /*start=*/false);
  auto& fd = *h.detectors[0];
  EXPECT_EQ(fd.incarnation(), 0u);
  fd.on_message(net::ProcessId(1),
                std::make_shared<SwimPingMessage>(
                    /*nonce=*/7, SwimUpdates{{net::ProcessId(0),
                                              SwimUpdate::Status::suspect, 0}}));
  EXPECT_EQ(fd.incarnation(), 1u);
  EXPECT_EQ(fd.counters().refutations, 1u);
  // The answering ack certifies the bumped incarnation and piggybacks the
  // alive update that will beat the suspicion wherever it spread.
  h.sim.run();
  ASSERT_EQ(h.routers[1].acks.size(), 1u);
  const auto& ack = *h.routers[1].acks.front();
  EXPECT_EQ(ack.subject(), net::ProcessId(0));
  EXPECT_EQ(ack.incarnation(), 1u);
  const SwimUpdate refutation{net::ProcessId(0), SwimUpdate::Status::alive, 1};
  EXPECT_NE(std::find(ack.updates().begin(), ack.updates().end(), refutation),
            ack.updates().end());
}

TEST(SwimDetectorTest, ConfirmedMemberRecoversThroughProbeRefutation) {
  // A healed partition leaves a live member falsely confirmed.  The
  // confirmer must keep probing it, tell it of the accusation, and accept
  // the bumped-incarnation refutation — otherwise mutual confirms are
  // permanent and consensus liveness (◊S) is gone.
  SwimHarness h(3, swim_config());
  h.detectors[0]->on_message(
      net::ProcessId(1),
      std::make_shared<SwimPingMessage>(
          /*nonce=*/1,
          SwimUpdates{{net::ProcessId(2), SwimUpdate::Status::confirm, 0}}));
  ASSERT_TRUE(h.detectors[0]->confirmed(net::ProcessId(2)));
  h.run_for(0.5);
  EXPECT_FALSE(h.detectors[0]->suspects(net::ProcessId(2)));
  EXPECT_GE(h.detectors[2]->incarnation(), 1u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    for (std::uint32_t j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_FALSE(h.detectors[i]->suspects(net::ProcessId(j)));
      }
    }
  }
}

TEST(SwimDetectorTest, PiggybackRespectsLimit) {
  SwimHarness h(12, swim_config(), /*start=*/false);
  // Ten fresh suspicions all want to disseminate; one ack has room for 8.
  SwimUpdates updates;
  for (std::uint32_t i = 2; i < 12; ++i) {
    updates.push_back({net::ProcessId(i), SwimUpdate::Status::suspect, 0});
  }
  h.detectors[0]->on_message(
      net::ProcessId(1),
      std::make_shared<SwimPingMessage>(/*nonce=*/5, std::move(updates)));
  h.sim.run();
  ASSERT_EQ(h.routers[1].acks.size(), 1u);
  EXPECT_EQ(h.routers[1].acks.front()->updates().size(), 8u);
}

TEST(SwimDetectorTest, SameSeedRunsAreBitIdentical) {
  const auto run = [](SwimHarness& h) {
    h.run_for(0.3);
    h.network.crash(net::ProcessId(4));
    h.run_for(0.7);
  };
  SwimHarness a(5, swim_config());
  SwimHarness b(5, swim_config());
  run(a);
  run(b);
  for (std::uint32_t i = 0; i < 5; ++i) {
    const auto& ca = a.detectors[i]->counters();
    const auto& cb = b.detectors[i]->counters();
    EXPECT_EQ(ca.probes_sent, cb.probes_sent) << i;
    EXPECT_EQ(ca.acks_received, cb.acks_received) << i;
    EXPECT_EQ(ca.indirect_probes_sent, cb.indirect_probes_sent) << i;
    EXPECT_EQ(ca.ping_reqs_relayed, cb.ping_reqs_relayed) << i;
    EXPECT_EQ(ca.suspicions, cb.suspicions) << i;
    EXPECT_EQ(ca.refutations, cb.refutations) << i;
    EXPECT_EQ(ca.confirms, cb.confirms) << i;
    EXPECT_EQ(ca.updates_piggybacked, cb.updates_piggybacked) << i;
    EXPECT_EQ(a.detectors[i]->incarnation(), b.detectors[i]->incarnation());
    for (std::uint32_t j = 0; j < 5; ++j) {
      if (i != j) {
        EXPECT_EQ(a.detectors[i]->suspects(net::ProcessId(j)),
                  b.detectors[i]->suspects(net::ProcessId(j)));
      }
    }
  }
}

TEST(SwimConfig, RejectsBadParameters) {
  sim::Simulator sim;
  net::Network network(sim, {});
  NullSink sink;
  network.attach(net::ProcessId(0), sink);

  SwimDetector::Config bad = swim_config();
  bad.direct_timeout = bad.period;  // must fall inside the period
  EXPECT_THROW(
      SwimDetector(sim, network, net::ProcessId(0), {net::ProcessId(1)}, bad),
      util::ContractViolation);

  bad = swim_config();
  bad.suspicion_periods = 0;
  EXPECT_THROW(
      SwimDetector(sim, network, net::ProcessId(0), {net::ProcessId(1)}, bad),
      util::ContractViolation);

  // A detector never monitors its own process.
  EXPECT_THROW(SwimDetector(sim, network, net::ProcessId(0),
                            {net::ProcessId(0), net::ProcessId(1)},
                            swim_config()),
               util::ContractViolation);
}

}  // namespace
}  // namespace svs::fd
