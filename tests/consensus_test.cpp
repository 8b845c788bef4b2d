// Unit & property tests for Chandra-Toueg consensus.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "consensus/mux.hpp"
#include "fd/oracle.hpp"
#include "net/network.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace svs::consensus {
namespace {

class IntValue final : public ValueBase {
 public:
  explicit IntValue(int v) : v_(v) {}
  [[nodiscard]] int value() const { return v_; }
  [[nodiscard]] std::size_t wire_size() const override { return 4; }

 private:
  int v_;
};

int as_int(const ValuePtr& v) {
  return std::dynamic_pointer_cast<const IntValue>(v)->value();
}

/// One consensus message as it reached a participant.
struct Arrival {
  sim::TimePoint at;
  net::ProcessId from;
  Round round;
  Phase phase;
  bool has_value;
};

/// One process: endpoint routing consensus traffic into a Mux, logging
/// every arrival.
class Participant final : public net::Endpoint {
 public:
  Participant(sim::Simulator& sim, net::Network& network, net::ProcessId self,
              sim::Duration oracle_delay)
      : sim_(sim),
        fd_(sim, network, self, oracle_delay),
        mux_(network, fd_, self) {
    network.attach(self, *this);
  }

  bool on_message(net::ProcessId from, const net::MessagePtr& message,
                  net::Lane) override {
    const auto& m = static_cast<const ConsensusMessage&>(*message);
    arrivals_.push_back(
        Arrival{sim_.now(), from, m.round(), m.phase(), m.value() != nullptr});
    EXPECT_TRUE(mux_.on_message(from, message));
    return true;
  }

  void open_and_propose(InstanceId id,
                        std::vector<net::ProcessId> participants, int value) {
    open_only(id, std::move(participants));
    mux_.propose(id, std::make_shared<IntValue>(value));
  }

  void open_only(InstanceId id, std::vector<net::ProcessId> participants) {
    mux_.open(id, std::move(participants), [this](const ValuePtr& v) {
      decision_ = as_int(v);
      decided_at_ = sim_.now();
    });
  }

  [[nodiscard]] std::optional<int> decision() const { return decision_; }
  [[nodiscard]] sim::TimePoint decided_at() const { return decided_at_; }
  [[nodiscard]] const std::vector<Arrival>& arrivals() const {
    return arrivals_;
  }
  [[nodiscard]] Mux& mux() { return mux_; }
  [[nodiscard]] const fd::FailureDetector& detector() const { return fd_; }

 private:
  sim::Simulator& sim_;
  fd::OracleDetector fd_;
  Mux mux_;
  std::optional<int> decision_;
  sim::TimePoint decided_at_;
  std::vector<Arrival> arrivals_;
};

struct Harness {
  explicit Harness(std::size_t n,
                   sim::Duration oracle_delay = sim::Duration::millis(20))
      : network(sim, {}) {
    for (std::size_t i = 0; i < n; ++i) {
      pids.push_back(net::ProcessId(static_cast<std::uint32_t>(i)));
    }
    for (std::size_t i = 0; i < n; ++i) {
      procs.push_back(std::make_unique<Participant>(sim, network, pids[i],
                                                    oracle_delay));
    }
  }

  sim::Simulator sim;
  net::Network network;
  std::vector<net::ProcessId> pids;
  std::vector<std::unique_ptr<Participant>> procs;
};

TEST(Consensus, ThreeProcessesAgree) {
  Harness h(3);
  for (std::size_t i = 0; i < 3; ++i) {
    h.procs[i]->open_and_propose(InstanceId(1), h.pids,
                                 static_cast<int>(100 + i));
  }
  h.sim.run();
  ASSERT_TRUE(h.procs[0]->decision().has_value());
  const int v = *h.procs[0]->decision();
  for (const auto& p : h.procs) {
    ASSERT_TRUE(p->decision().has_value());
    EXPECT_EQ(*p->decision(), v);
  }
  EXPECT_GE(v, 100);
  EXPECT_LE(v, 102);  // validity
}

TEST(Consensus, SingleProcessDecidesItsOwnValue) {
  Harness h(1);
  h.procs[0]->open_and_propose(InstanceId(1), h.pids, 7);
  h.sim.run();
  ASSERT_TRUE(h.procs[0]->decision().has_value());
  EXPECT_EQ(*h.procs[0]->decision(), 7);
}

TEST(Consensus, DecidesWithCrashedCoordinator) {
  Harness h(3);
  // Coordinator of round 0 is participant 0; crash it before it proposes.
  h.network.crash(net::ProcessId(0));
  for (std::size_t i = 1; i < 3; ++i) {
    h.procs[i]->open_and_propose(InstanceId(1), h.pids,
                                 static_cast<int>(100 + i));
  }
  h.sim.run();
  ASSERT_TRUE(h.procs[1]->decision().has_value());
  ASSERT_TRUE(h.procs[2]->decision().has_value());
  EXPECT_EQ(*h.procs[1]->decision(), *h.procs[2]->decision());
  // Validity: the dead coordinator's value cannot be decided (it never
  // proposed).
  EXPECT_NE(*h.procs[1]->decision(), 100);
}

TEST(Consensus, ToleratesMinorityCrashMidRun) {
  Harness h(5);
  for (std::size_t i = 0; i < 5; ++i) {
    h.procs[i]->open_and_propose(InstanceId(1), h.pids,
                                 static_cast<int>(i));
  }
  // Crash two processes shortly after proposing.
  h.sim.schedule_after(sim::Duration::micros(1500),
                       [&] { h.network.crash(net::ProcessId(1)); });
  h.sim.schedule_after(sim::Duration::micros(1700),
                       [&] { h.network.crash(net::ProcessId(3)); });
  h.sim.run();
  std::optional<int> agreed;
  for (const std::size_t i : {0u, 2u, 4u}) {
    ASSERT_TRUE(h.procs[i]->decision().has_value()) << i;
    if (!agreed) agreed = *h.procs[i]->decision();
    EXPECT_EQ(*h.procs[i]->decision(), *agreed);
  }
}

TEST(Consensus, LateProposerStillDecides) {
  Harness h(3);
  h.procs[0]->open_and_propose(InstanceId(1), h.pids, 1);
  h.procs[1]->open_and_propose(InstanceId(1), h.pids, 2);
  // Process 2 opens late — messages meanwhile are buffered by its Mux.
  h.sim.schedule_after(sim::Duration::millis(500), [&] {
    h.procs[2]->open_and_propose(InstanceId(1), h.pids, 3);
  });
  h.sim.run();
  for (const auto& p : h.procs) {
    ASSERT_TRUE(p->decision().has_value());
    EXPECT_EQ(*p->decision(), *h.procs[0]->decision());
  }
}

TEST(Consensus, NonProposerLearnsDecision) {
  Harness h(3);
  h.procs[0]->open_and_propose(InstanceId(1), h.pids, 1);
  h.procs[1]->open_and_propose(InstanceId(1), h.pids, 2);
  h.procs[2]->open_only(InstanceId(1), h.pids);
  h.sim.run();
  ASSERT_TRUE(h.procs[2]->decision().has_value());
  EXPECT_EQ(*h.procs[2]->decision(), *h.procs[0]->decision());
}

TEST(Consensus, IndependentInstancesDoNotInterfere) {
  Harness h(3);
  for (std::size_t i = 0; i < 3; ++i) {
    h.procs[i]->open_and_propose(InstanceId(1), h.pids, 10);
    h.procs[i]->open_and_propose(InstanceId(2), h.pids, 20);
  }
  h.sim.run();
  for (const auto& p : h.procs) {
    EXPECT_EQ(as_int(p->mux().find(InstanceId(1))->decision()), 10);
    EXPECT_EQ(as_int(p->mux().find(InstanceId(2))->decision()), 20);
  }
}

TEST(Consensus, ProposeTwiceRejected) {
  Harness h(1);
  h.procs[0]->open_and_propose(InstanceId(1), h.pids, 1);
  EXPECT_THROW(
      h.procs[0]->mux().propose(InstanceId(1), std::make_shared<IntValue>(2)),
      util::ContractViolation);
}

TEST(Consensus, DecideOmitsTheValueOnlyAlongTheCoordinatorsLinks) {
  // Failure-free, 4 participants, round 0 decides (coordinator p0).  Its
  // exchange: 4 ESTIMATE and 4 PROPOSE carry the value, 4 ACK do not.  Of
  // the 12 DECIDEs, p0's 3 and the 3 relays back to p0 travel bare — each
  // addressee already holds PROPOSE(0), p0 its own — and the 6 relays
  // among p1..p3 carry it: the decision's value travels in 14 messages,
  // where a value on every DECIDE costs 20.  Each participant enters round
  // 1 once it has ACKed, so 4 ESTIMATE(1) and p1's 4 PROPOSE(1) leave
  // before the decision arrives: 32 messages in all, the same count as
  // with a value on every DECIDE.
  Harness h(4);
  for (std::size_t i = 0; i < 4; ++i) {
    h.procs[i]->open_and_propose(InstanceId(1), h.pids,
                                 static_cast<int>(100 + i));
  }
  h.sim.run();
  std::size_t total = 0;
  std::size_t round0 = 0;
  std::size_t round0_valued = 0;
  std::size_t decides = 0;
  std::size_t decides_valued = 0;
  for (const auto& p : h.procs) {
    ASSERT_TRUE(p->decision().has_value());
    EXPECT_EQ(*p->decision(), *h.procs[0]->decision());
    for (const auto& a : p->arrivals()) {
      ++total;
      if (a.phase == Phase::decide) {
        ++decides;
        EXPECT_EQ(a.round, 0u);  // the decided round, not the relayer's
        if (a.has_value) {
          ++decides_valued;
        } else {
          EXPECT_TRUE(a.from == h.pids[0] || p.get() == h.procs[0].get());
        }
      } else if (a.round == 0) {
        ++round0;
        if (a.has_value) ++round0_valued;
      }
    }
  }
  EXPECT_EQ(round0, 12u);
  EXPECT_EQ(round0_valued, 8u);
  EXPECT_EQ(decides, 12u);
  EXPECT_EQ(decides_valued, 6u);
  EXPECT_EQ(round0_valued + decides_valued, 14u);
  EXPECT_EQ(total, 32u);
}

TEST(Consensus, RelayCarriesTheValuePastASlowCoordinatorLink) {
  // p0 coordinates round 0, but its link to p3 is slow: p3 hears neither
  // PROPOSE(0) nor p0's bare DECIDE(0) in time.  It decides from a relay
  // of p1 or p2, which must carry the value, before anything of p0's
  // reaches it.
  Harness h(4);
  h.network.set_link_slowdown(h.pids[0], h.pids[3], sim::Duration::millis(50));
  for (std::size_t i = 0; i < 4; ++i) {
    h.procs[i]->open_and_propose(InstanceId(1), h.pids,
                                 static_cast<int>(100 + i));
  }
  h.sim.run();
  const Participant& slow = *h.procs[3];
  ASSERT_TRUE(slow.decision().has_value());
  EXPECT_EQ(*slow.decision(), *h.procs[0]->decision());
  const Arrival* first_from_coordinator = nullptr;
  const Arrival* first_decide = nullptr;
  for (const auto& a : slow.arrivals()) {
    if (first_from_coordinator == nullptr && a.from == h.pids[0]) {
      first_from_coordinator = &a;
    }
    if (first_decide == nullptr && a.phase == Phase::decide) first_decide = &a;
  }
  ASSERT_NE(first_decide, nullptr);
  EXPECT_NE(first_decide->from, h.pids[0]);
  EXPECT_TRUE(first_decide->has_value);
  EXPECT_EQ(first_decide->at, slow.decided_at());
  ASSERT_NE(first_from_coordinator, nullptr);  // it does arrive, late
  EXPECT_LT(slow.decided_at(), first_from_coordinator->at);
}

TEST(Consensus, BareDecideNeedsTheStoredProposal) {
  // A DECIDE without a value decides the PROPOSE stored for its round;
  // with none stored it is ignored, like a PROPOSE from a non-coordinator.
  Harness h(3);
  const auto& pids = h.pids;
  std::optional<int> decided;
  Instance instance(h.network, h.procs[1]->detector(), pids[1], pids,
                    InstanceId(1),
                    [&](const ValuePtr& v) { decided = as_int(v); });
  const auto bare_decide = [](Round r) {
    return ConsensusMessage(InstanceId(1), r, Phase::decide, nullptr, 0);
  };
  instance.on_message(pids[0], bare_decide(0));
  EXPECT_FALSE(instance.decided());
  // A PROPOSE(1) from p0, which does not coordinate round 1, is not stored.
  instance.on_message(pids[0],
                      ConsensusMessage(InstanceId(1), 1, Phase::propose,
                                       std::make_shared<IntValue>(5), 0));
  instance.on_message(pids[2], bare_decide(1));
  EXPECT_FALSE(instance.decided());
  instance.on_message(pids[0],
                      ConsensusMessage(InstanceId(1), 0, Phase::propose,
                                       std::make_shared<IntValue>(7), 0));
  instance.on_message(pids[0], bare_decide(0));
  ASSERT_TRUE(decided.has_value());
  EXPECT_EQ(*decided, 7);
}

TEST(Consensus, NestedCloseAndOpenChainFromBufferedDecisions) {
  // The view-change pattern at a member that hears about a run of changes
  // last: every decision is already buffered, so opening instance k
  // decides it during the replay, and its callback closes it and opens
  // k+1 (as Node::install does), which decides in turn — kChain instances
  // nested inside one open().  Closed instances must outlive every frame
  // of theirs on that stack (ASan watches this).
  constexpr std::uint64_t kChain = 8;
  Harness h(3);
  for (std::uint64_t k = 1; k <= kChain; ++k) {
    for (std::size_t i = 0; i < 2; ++i) {
      h.procs[i]->open_and_propose(InstanceId(k), h.pids,
                                   static_cast<int>(100 + k));
    }
  }
  h.sim.run();
  Mux& mux = h.procs[2]->mux();
  std::vector<int> decided;
  std::function<void(std::uint64_t)> open_next = [&](std::uint64_t k) {
    mux.open(InstanceId(k), h.pids, [&, k](const ValuePtr& v) {
      decided.push_back(as_int(v));
      mux.close_below(InstanceId(k + 1));
      EXPECT_EQ(mux.find(InstanceId(k)), nullptr);
      if (k < kChain) open_next(k + 1);
    });
  };
  open_next(1);
  ASSERT_EQ(decided.size(), kChain);
  for (std::uint64_t k = 1; k <= kChain; ++k) {
    EXPECT_EQ(decided[k - 1], static_cast<int>(100 + k));
  }
  EXPECT_EQ(mux.open_instances(), 0u);
  EXPECT_EQ(h.procs[2]->detector().listener_count(), 1u);
  // Late traffic for a closed instance is dropped, not buffered for ever.
  EXPECT_TRUE(mux.on_message(
      h.pids[0], std::make_shared<ConsensusMessage>(
                     InstanceId(1), 0, Phase::decide, nullptr, 0)));
  EXPECT_THROW(mux.open(InstanceId(1), h.pids, [](const ValuePtr&) {}),
               util::ContractViolation);
}

// ---------------------------------------------------------------------------
// Property sweep: agreement/validity/termination under randomized crashes,
// proposal timing and group sizes.
// ---------------------------------------------------------------------------

class ConsensusProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsensusProperty, AgreementValidityTermination) {
  sim::Rng rng(GetParam());
  const std::size_t n = 3 + rng.below(5);            // 3..7
  const std::size_t max_crashes = (n - 1) / 2;       // strict minority
  const std::size_t crashes = rng.below(max_crashes + 1);

  Harness h(n, sim::Duration::millis(5 + rng.below(40)));

  std::vector<int> proposals(n);
  for (std::size_t i = 0; i < n; ++i) {
    proposals[i] = static_cast<int>(1000 + i);
    const auto delay = sim::Duration::micros(
        static_cast<std::int64_t>(rng.below(5000)));
    h.sim.schedule_after(delay, [&h, i, &proposals] {
      h.procs[i]->open_and_propose(InstanceId(9), h.pids,
                                   proposals[i]);
    });
  }
  // Crash a random strict minority at random times.
  std::vector<bool> crashed(n, false);
  std::size_t planned = 0;
  while (planned < crashes) {
    const std::size_t victim = rng.below(n);
    if (crashed[victim]) continue;
    crashed[victim] = true;
    ++planned;
    const auto when = sim::Duration::micros(
        static_cast<std::int64_t>(rng.below(20000)));
    h.sim.schedule_after(when, [&h, victim] {
      h.network.crash(net::ProcessId(static_cast<std::uint32_t>(victim)));
    });
  }

  h.sim.run();

  std::optional<int> agreed;
  for (std::size_t i = 0; i < n; ++i) {
    if (crashed[i]) continue;
    // Termination for every correct process.
    ASSERT_TRUE(h.procs[i]->decision().has_value())
        << "proc " << i << " undecided (seed " << GetParam() << ")";
    if (!agreed) agreed = *h.procs[i]->decision();
    // Agreement.
    EXPECT_EQ(*h.procs[i]->decision(), *agreed)
        << "disagreement at proc " << i << " (seed " << GetParam() << ")";
  }
  if (agreed) {
    // Validity: the decision is someone's proposal.
    EXPECT_GE(*agreed, 1000);
    EXPECT_LT(*agreed, 1000 + static_cast<int>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusProperty,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace svs::consensus
