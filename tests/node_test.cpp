// Behavioural tests for the SVS protocol node (Figure 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "core/checker.hpp"
#include "obs/batch.hpp"
#include "core/group.hpp"
#include "core/node.hpp"
#include "obs/relation.hpp"
#include "sim/simulator.hpp"
#include "workload/consumer.hpp"

namespace svs::core {
namespace {

/// Minimal payload for protocol-level tests.
class Blob final : public Payload {
 public:
  explicit Blob(int id) : id_(id) {}
  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] std::size_t wire_size() const override { return 8; }

 private:
  int id_;
};

int blob_id(const DataMessagePtr& m) {
  return std::dynamic_pointer_cast<const Blob>(m->payload())->id();
}

PayloadPtr blob(int id) { return std::make_shared<Blob>(id); }

Group::Config base_config(obs::RelationPtr relation,
                          NodeObserver* observer = nullptr) {
  Group::Config cfg;
  cfg.size = 3;
  cfg.node.relation = std::move(relation);
  cfg.observer = observer;
  cfg.oracle_delay = sim::Duration::millis(20);
  cfg.membership.suspicion_grace = sim::Duration::millis(10);
  return cfg;
}

/// Data messages from a drained delivery list.
std::vector<DataMessagePtr> data_of(const std::vector<Delivery>& ds) {
  std::vector<DataMessagePtr> out;
  for (const auto& d : ds) {
    if (const auto* dd = std::get_if<DataDelivery>(&d)) {
      out.push_back(dd->message);
    }
  }
  return out;
}

std::vector<View> views_of(const std::vector<Delivery>& ds) {
  std::vector<View> out;
  for (const auto& d : ds) {
    if (const auto* vd = std::get_if<ViewDelivery>(&d)) out.push_back(vd->view);
  }
  return out;
}

bool has_exclusion(const std::vector<Delivery>& ds) {
  for (const auto& d : ds) {
    if (std::holds_alternative<ExclusionDelivery>(d)) return true;
  }
  return false;
}

TEST(Node, InitialViewDelivered) {
  sim::Simulator sim;
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>()));
  sim.run();
  for (std::size_t i = 0; i < 3; ++i) {
    const auto views = views_of(g.drain(i));
    ASSERT_EQ(views.size(), 1u) << i;
    EXPECT_EQ(views[0].id(), ViewId(0));
    EXPECT_EQ(views[0].size(), 3u);
  }
}

TEST(Node, MulticastReachesEveryMemberInFifoOrder) {
  sim::Simulator sim;
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>()));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::none()));
  }
  sim.run();
  for (std::size_t n = 0; n < 3; ++n) {
    const auto msgs = data_of(g.drain(n));
    ASSERT_EQ(msgs.size(), 5u) << n;
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(blob_id(msgs[i]), i);
      EXPECT_EQ(msgs[i]->sender(), g.pid(0));
      EXPECT_EQ(msgs[i]->seq(), static_cast<std::uint64_t>(i + 1));
      EXPECT_EQ(msgs[i]->view(), ViewId(0));
    }
  }
}

TEST(Node, SequenceNumbersReturnedAndMonotone) {
  sim::Simulator sim;
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>()));
  EXPECT_EQ(g.node(0).multicast(blob(0), obs::Annotation::none()), 1u);
  EXPECT_EQ(g.node(0).multicast(blob(1), obs::Annotation::none()), 2u);
  EXPECT_EQ(g.node(1).multicast(blob(2), obs::Annotation::none()), 1u);
}

TEST(Node, VoluntaryLeaveInstallsNextView) {
  sim::Simulator sim;
  SpecChecker checker(std::make_shared<obs::EmptyRelation>());
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>(), &checker));
  g.node(0).multicast(blob(1), obs::Annotation::none());
  ASSERT_TRUE(g.node(2).request_view_change({g.pid(2)}));
  sim.run();

  for (std::size_t i = 0; i < 2; ++i) {
    const auto ds = g.drain(i);
    const auto views = views_of(ds);
    ASSERT_EQ(views.size(), 2u) << i;
    EXPECT_EQ(views[1].id(), ViewId(1));
    EXPECT_EQ(views[1].size(), 2u);
    EXPECT_FALSE(views[1].contains(g.pid(2)));
  }
  const auto ds2 = g.drain(2);
  EXPECT_TRUE(has_exclusion(ds2));
  EXPECT_TRUE(g.node(2).excluded());
  EXPECT_EQ(checker.verify(), std::vector<std::string>{});
}

TEST(Node, CrashedMemberIsExcludedByPolicy) {
  sim::Simulator sim;
  SpecChecker checker(std::make_shared<obs::EmptyRelation>());
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>(), &checker));
  g.node(0).multicast(blob(1), obs::Annotation::none());
  sim.run();
  g.crash(2);
  sim.run();

  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(g.node(i).blocked()) << i;
    EXPECT_EQ(g.node(i).current_view().id(), ViewId(1)) << i;
    EXPECT_FALSE(g.node(i).current_view().contains(g.pid(2)));
    g.drain(i);
  }
  EXPECT_EQ(checker.verify(), std::vector<std::string>{});
}

TEST(Node, MulticastBlockedDuringViewChange) {
  sim::Simulator sim;
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>()));
  ASSERT_TRUE(g.node(0).request_view_change({}));
  // Run only until node 0 has processed its own INIT (control delay 1ms).
  sim.run_until(sim.now() + sim::Duration::millis(1));
  EXPECT_TRUE(g.node(0).blocked());
  EXPECT_FALSE(g.node(0).multicast(blob(1), obs::Annotation::none()));
  EXPECT_FALSE(g.node(0).can_multicast());
  EXPECT_GT(g.node(0).stats().multicast_blocked, 0u);
  sim.run();
  EXPECT_FALSE(g.node(0).blocked());
  EXPECT_TRUE(g.node(0).multicast(blob(2), obs::Annotation::none()));
  // An empty-leave reconfiguration keeps everyone.
  EXPECT_EQ(g.node(0).current_view().id(), ViewId(1));
  EXPECT_EQ(g.node(0).current_view().size(), 3u);
}

TEST(Node, RequestViewChangeWhileBlockedFails) {
  sim::Simulator sim;
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>()));
  ASSERT_TRUE(g.node(0).request_view_change({}));
  sim.run_until(sim.now() + sim::Duration::millis(1));
  EXPECT_FALSE(g.node(0).request_view_change({}));
  sim.run();
}

TEST(Node, PurgesObsoleteMessagesInDeliveryQueue) {
  sim::Simulator sim;
  auto relation = std::make_shared<obs::ItemTagRelation>();
  Group g(sim, base_config(relation));
  // Ten updates of the same item; each reaches the receivers (sim.run)
  // before the next is sent, so purging happens in the receivers' delivery
  // queues (t3), not in the sender's outgoing buffers.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::item(7)));
    sim.run();
  }
  // The receivers' queues hold only the view notification + the last update.
  for (std::size_t n = 1; n < 3; ++n) {
    EXPECT_EQ(g.node(n).delivery_data_count(), 1u) << n;
    EXPECT_GT(g.node(n).stats().purged_delivery, 0u);
    const auto msgs = data_of(g.drain(n));
    ASSERT_EQ(msgs.size(), 1u);
    EXPECT_EQ(blob_id(msgs[0]), 9);  // only the newest survives
  }
  // The sender's own queue purges too (t2's purge call).
  EXPECT_EQ(g.node(0).delivery_data_count(), 1u);
}

TEST(Node, ReliableBaselineDoesNotPurge) {
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::ItemTagRelation>());
  cfg.node.purge_delivery_queue = false;
  cfg.node.purge_outgoing = false;
  Group g(sim, cfg);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::item(7)));
  }
  sim.run();
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(data_of(g.drain(n)).size(), 10u) << n;
    EXPECT_EQ(g.node(n).stats().purged_delivery, 0u);
  }
}

/// Records every message t2 accepted.
class MulticastRecorder final : public NodeObserver {
 public:
  void on_multicast(net::ProcessId /*p*/, const DataMessagePtr& m) override {
    sent.push_back(m);
  }
  std::vector<DataMessagePtr> sent;
};

/// Node 0 multicasts one message per annotation under `relation`; returns
/// whether each was marked held in the outgoing buffer.
std::vector<bool> held_marks(obs::RelationPtr relation,
                             std::vector<obs::Annotation> annotations,
                             bool purge_outgoing = true) {
  sim::Simulator sim;
  MulticastRecorder recorder;
  auto cfg = base_config(std::move(relation), &recorder);
  cfg.node.purge_outgoing = purge_outgoing;
  Group g(sim, cfg);
  std::vector<bool> held;
  for (auto& annotation : annotations) {
    EXPECT_TRUE(g.node(0).multicast(blob(0), std::move(annotation)));
    held.push_back(recorder.sent.back()->held());
  }
  return held;
}

obs::Annotation kenum(std::initializer_list<std::size_t> distances) {
  obs::KBitmap bitmap(8);
  for (const std::size_t d : distances) bitmap.set(d);
  return obs::Annotation::kenum(bitmap);
}

TEST(Node, MarksHeldExactlyTheOverwritesItCanPurgeWith) {
  using obs::Annotation;
  using Marks = std::vector<bool>;
  // k-enumeration: only a non-empty bitmap names an earlier message; an
  // annotation of another kind cannot be purged with at all.
  EXPECT_EQ(held_marks(std::make_shared<obs::KEnumRelation>(),
                       {kenum({}), kenum({1}), Annotation::none(),
                        Annotation::item(7), kenum({1, 3})}),
            (Marks{false, true, false, false, true}));
  // Enumeration: only a non-empty list.
  EXPECT_EQ(held_marks(std::make_shared<obs::EnumerationRelation>(),
                       {Annotation::enumerate({}), Annotation::enumerate({1}),
                        Annotation::none()}),
            (Marks{false, true, false}));
  // Item tags always qualify: any write of an item may overwrite another.
  EXPECT_EQ(held_marks(std::make_shared<obs::ItemTagRelation>(),
                       {Annotation::item(7), Annotation::item(8),
                        Annotation::none()}),
            (Marks{true, true, false}));
  // The empty relation purges with nothing, so nothing waits.
  EXPECT_EQ(held_marks(std::make_shared<obs::EmptyRelation>(),
                       {kenum({1}), Annotation::item(7),
                        Annotation::enumerate({1})}),
            (Marks{false, false, false}));
  // Without sender-side purging nothing can remove a waiting message.
  EXPECT_EQ(held_marks(std::make_shared<obs::KEnumRelation>(),
                       {kenum({}), kenum({1}), Annotation::item(7)},
                       /*purge_outgoing=*/false),
            (Marks{false, false, false}));
}

TEST(Node, FlowControlBlocksAndUnblocksProducer) {
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::EmptyRelation>());
  cfg.node.out_capacity = 4;
  cfg.node.delivery_capacity = 4;
  Group g(sim, cfg);

  // The producer consumes its own copies instantly; nodes 1/2 consume
  // nothing, so the pipeline (their delivery queues + the outgoing
  // buffers towards them) fills after a bounded number of multicasts.
  g.node(0).set_deliverable_callback([&] { g.drain(0); });
  g.drain(0);
  int accepted = 0;
  for (int i = 0; i < 100; ++i) {
    if (!g.node(0).multicast(blob(i), obs::Annotation::none())) break;
    ++accepted;
    sim.run();  // let deliveries propagate
  }
  EXPECT_GT(accepted, 3);
  EXPECT_LE(accepted, 20);  // delivery queue (4) + out buffer (4) + slack
  EXPECT_FALSE(g.node(0).can_multicast());
  // Some outgoing buffer from the producer is at capacity.
  const auto backlog = [&](std::size_t i) {
    return g.network().data_backlog(g.pid(0), g.pid(i));
  };
  EXPECT_GE(std::max(backlog(1), backlog(2)), cfg.node.out_capacity);
  EXPECT_GT(g.node(1).stats().refused_data, 0u);

  bool unblocked = false;
  g.node(0).set_unblocked_callback([&] { unblocked = true; });
  // Draining the receivers frees space end-to-end.
  g.drain(1);
  g.drain(2);
  sim.run();
  EXPECT_TRUE(unblocked);
  EXPECT_TRUE(g.node(0).multicast(blob(999), obs::Annotation::none()));
}

TEST(Node, BoundedQueueRefusesWhenFullAndPurgingDisabled) {
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::EmptyRelation>());
  cfg.node.delivery_capacity = 3;  // out buffers unbounded
  Group g(sim, cfg);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::none()));
    g.drain(0);  // the producer's own queue must not be the bottleneck
  }
  sim.run();
  // Receivers cease to accept at 3 queued messages; the rest waits in the
  // sender's outgoing buffers.
  EXPECT_EQ(g.node(1).delivery_data_count(), 3u);
  EXPECT_GT(g.node(1).stats().refused_data, 0u);
  EXPECT_EQ(g.network().data_backlog(g.pid(0), g.pid(1)), 5u);
}

TEST(Node, BlockedMulticastLeavesOutgoingBuffersIntact) {
  // Regression: the sender-side purge used to run *before* the flow-control
  // admission checks, so a refused multicast had already evicted the
  // messages its never-sent covering message obsoleted — the receiver then
  // got neither the victim nor the coverer.  The purge must happen after
  // the commit point.
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::ItemTagRelation>());
  cfg.node.delivery_capacity = 2;
  cfg.node.out_capacity = 0;  // pressure comes from the sender's own queue
  Group g(sim, cfg);
  // Make node 2 a slow destination so its outgoing buffer retains traffic.
  g.network().set_link_slowdown(g.pid(0), g.pid(2), sim::Duration::seconds(10));

  // Step in short slices (not sim.run(), which would sit out the 10 s
  // slowdown) so the copies towards p2 stay queued in the outgoing buffer.
  const auto step = [&sim] {
    sim.run_until(sim.now() + sim::Duration::millis(5));
  };
  ASSERT_TRUE(g.node(0).multicast(blob(1), obs::Annotation::item(7)));
  step();
  g.drain(0);  // frees the producer's own queue; item 7 stays queued to p2
  ASSERT_TRUE(g.node(0).multicast(blob(2), obs::Annotation::item(8)));
  step();
  ASSERT_TRUE(g.node(0).multicast(blob(3), obs::Annotation::item(9)));
  step();
  ASSERT_EQ(g.node(0).delivery_data_count(), 2u);  // own queue now full
  ASSERT_EQ(g.network().data_backlog(g.pid(0), g.pid(2)), 3u);

  // An update of item 7 covers the copy queued towards p2, but the
  // producer's own full queue refuses the multicast.  Nothing may change.
  const auto purged_before = g.network().stats().purged_outgoing;
  const auto blocked_before = g.node(0).stats().multicast_blocked;
  EXPECT_FALSE(g.node(0).multicast(blob(4), obs::Annotation::item(7)));
  EXPECT_EQ(g.node(0).stats().multicast_blocked, blocked_before + 1);
  EXPECT_EQ(g.network().data_backlog(g.pid(0), g.pid(2)), 3u);
  EXPECT_EQ(g.network().stats().purged_outgoing, purged_before);

  // Once unblocked the retry purges the now-covered copy and goes through:
  // p2 eventually gets items 8, 9 and the *new* 7 — no gap.
  g.drain(0);
  ASSERT_TRUE(g.node(0).multicast(blob(5), obs::Annotation::item(7)));
  EXPECT_EQ(g.network().stats().purged_outgoing, purged_before + 1);
  sim.run_until(sim.now() + sim::Duration::seconds(30.0));
  auto msgs = data_of(g.drain(2));  // frees p2's bounded queue, link resumes
  sim.run();
  const auto tail = data_of(g.drain(2));
  msgs.insert(msgs.end(), tail.begin(), tail.end());
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_EQ(blob_id(msgs[0]), 2);
  EXPECT_EQ(blob_id(msgs[1]), 3);
  EXPECT_EQ(blob_id(msgs[2]), 5);
}

TEST(Node, StabilityGossipSendsDeltasAndCountsSavedBytes) {
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::EmptyRelation>());
  Group g(sim, cfg);
  // Two senders report once, then only p0 keeps sending: later gossip
  // rounds ship a 1-entry delta instead of the 2-entry snapshot, banking
  // the difference against the full-vector wire model.
  ASSERT_TRUE(g.node(1).multicast(blob(100), obs::Annotation::none()));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::none()));
    sim.run_until(sim.now() + sim::Duration::millis(60));
    for (std::size_t n = 0; n < 3; ++n) g.drain(n);
  }
  sim.run();
  EXPECT_GT(g.network().stats().gossip_bytes_saved, 0u);
  // Delta gossip must not break stability GC: the delivered history is
  // still collected once every member's report covers it.
  EXPECT_GT(g.node(0).stats().stability_gcs, 0u);
}

TEST(Node, PurgingKeepsBoundedQueueFlowing) {
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::ItemTagRelation>());
  cfg.node.delivery_capacity = 2;
  cfg.node.out_capacity = 0;  // unbounded out; pressure is at the receiver
  Group g(sim, cfg);
  // Updates of one item: each new arrival purges its predecessor, so the
  // bounded queue never refuses and the producer never blocks.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::item(1)));
    sim.run();
  }
  EXPECT_EQ(g.node(1).stats().refused_data, 0u);
  EXPECT_EQ(g.node(1).delivery_data_count(), 1u);
  const auto msgs = data_of(g.drain(1));
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(blob_id(msgs[0]), 49);
}

TEST(Node, StaleViewDataDroppedAfterInstall) {
  // p2 multicasts (slowly towards p0) and then leaves the group.  Being
  // excluded, p2 never reclaims its outgoing buffers, so its message still
  // arrives at p0 long after p0 installed the next view: p0 must have
  // delivered it through the agreed flush and drop the late copy as stale.
  sim::Simulator sim;
  SpecChecker checker(std::make_shared<obs::EmptyRelation>());
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>(), &checker));
  g.network().set_link_slowdown(g.pid(2), g.pid(0), sim::Duration::seconds(2));
  ASSERT_TRUE(g.node(2).multicast(blob(1), obs::Annotation::none()));
  ASSERT_TRUE(g.node(2).request_view_change({g.pid(2)}));
  sim.run();

  const auto msgs = data_of(g.drain(0));
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(blob_id(msgs[0]), 1);
  EXPECT_EQ(g.node(0).stats().stale_view_drops, 1u);
  EXPECT_GT(g.node(0).stats().flushed_in, 0u);
  g.drain(1);
  g.drain(2);
  EXPECT_EQ(checker.verify(), std::vector<std::string>{});
}

TEST(Node, FlushDeliversInFlightMessagesBeforeNewView) {
  sim::Simulator sim;
  SpecChecker checker(std::make_shared<obs::EmptyRelation>());
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>(), &checker));
  g.network().set_link_slowdown(g.pid(0), g.pid(2), sim::Duration::seconds(10));
  ASSERT_TRUE(g.node(0).multicast(blob(1), obs::Annotation::none()));
  sim.run_until(sim.now() + sim::Duration::millis(5));
  ASSERT_TRUE(g.node(1).request_view_change({}));
  sim.run_until(sim.now() + sim::Duration::seconds(1));

  // p2 must have delivered the message (via the agreed pred-view flush)
  // before installing v1 even though the direct copy is still in flight.
  const auto ds = g.drain(2);
  const auto msgs = data_of(ds);
  const auto views = views_of(ds);
  ASSERT_EQ(msgs.size(), 1u);
  ASSERT_EQ(views.size(), 2u);
  EXPECT_GT(g.node(2).stats().flushed_in, 0u);
  g.drain(0);
  g.drain(1);
  EXPECT_EQ(checker.verify(), std::vector<std::string>{});
}

TEST(Node, ExcludedNodeCannotMulticast) {
  sim::Simulator sim;
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>()));
  ASSERT_TRUE(g.node(2).request_view_change({g.pid(2)}));
  sim.run();
  EXPECT_TRUE(g.node(2).excluded());
  EXPECT_FALSE(g.node(2).multicast(blob(1), obs::Annotation::none()));
  EXPECT_FALSE(g.node(2).request_view_change({}));
}

TEST(Node, ConsecutiveViewChanges) {
  sim::Simulator sim;
  SpecChecker checker(std::make_shared<obs::EmptyRelation>());
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>(), &checker));
  g.node(0).multicast(blob(1), obs::Annotation::none());
  ASSERT_TRUE(g.node(0).request_view_change({}));
  sim.run();
  g.node(0).multicast(blob(2), obs::Annotation::none());
  ASSERT_TRUE(g.node(1).request_view_change({}));
  sim.run();
  g.node(0).multicast(blob(3), obs::Annotation::none());
  ASSERT_TRUE(g.node(2).request_view_change({g.pid(2)}));
  sim.run();

  EXPECT_EQ(g.node(0).current_view().id(), ViewId(3));
  EXPECT_EQ(g.node(0).stats().views_installed, 3u);
  for (std::size_t i = 0; i < 3; ++i) g.drain(i);
  EXPECT_EQ(checker.verify(), std::vector<std::string>{});
  EXPECT_EQ(checker.verify_strict_vs(), std::vector<std::string>{});
}

TEST(Node, ViewChangesCloseTheirConsensusInstances) {
  // Each install closes the consensus instances below the new view, so a
  // long run of view changes under load leaves every node holding at most
  // its current view's instance — and no more failure-detector listeners
  // than after the first change: the Mux forwards suspicions through one
  // subscription instead of one per instance.
  constexpr std::uint64_t kChanges = 200;
  sim::Simulator sim;
  SpecChecker checker(std::make_shared<obs::EmptyRelation>());
  auto cfg = base_config(std::make_shared<obs::EmptyRelation>(), &checker);
  cfg.size = 4;
  Group g(sim, cfg);
  std::size_t most_open = 0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    g.node(i).set_deliverable_callback([&g, i] { g.drain(i); });
    g.drain(i);
    g.node(i).subscribe_install([&g, &most_open, i](const View&) {
      most_open =
          std::max(most_open, g.node(i).consensus_mux().open_instances());
    });
  }
  // Paced load: one multicast every millisecond, senders in rotation (a
  // sender blocked by a view change just skips its turn).
  int sent = 0;
  std::function<void()> produce = [&] {
    if (g.node(0).current_view().id().value() >= kChanges) return;
    (void)g.node(static_cast<std::size_t>(sent) % g.size())
        .multicast(blob(sent), obs::Annotation::none());
    ++sent;
    sim.schedule_after(sim::Duration::millis(1), produce);
  };
  produce();
  std::vector<std::size_t> listeners;
  for (std::uint64_t change = 0; change < kChanges; ++change) {
    sim.run_until(sim.now() + sim::Duration::millis(10));
    const auto initiator = static_cast<std::size_t>(change % g.size());
    ASSERT_TRUE(g.node(initiator).request_view_change({}));
    const auto deadline = sim.now() + sim::Duration::seconds(1.0);
    while (g.node(initiator).current_view().id().value() <= change &&
           sim.now() < deadline) {
      sim.run_until(sim.now() + sim::Duration::millis(1));
    }
    ASSERT_EQ(g.node(initiator).current_view().id(), ViewId(change + 1));
    for (std::size_t i = 0; i < g.size(); ++i) {
      ASSERT_LE(g.node(i).consensus_mux().open_instances(), 1u)
          << "node " << i << " after change " << change;
      if (change == 0) {
        listeners.push_back(g.detector(i).listener_count());
      } else {
        ASSERT_EQ(g.detector(i).listener_count(), listeners[i])
            << "node " << i << " after change " << change;
      }
    }
  }
  sim.run();
  EXPECT_LE(most_open, 1u);
  EXPECT_GT(sent, static_cast<int>(kChanges));
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.node(i).current_view().id(), ViewId(kChanges));
    EXPECT_EQ(g.node(i).stats().views_installed, kChanges);
    EXPECT_LE(g.node(i).consensus_mux().open_instances(), 1u);
    g.drain(i);
  }
  EXPECT_EQ(checker.verify(), std::vector<std::string>{});
}

TEST(Node, ViewChangeLatencyRecorded) {
  sim::Simulator sim;
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>()));
  ASSERT_TRUE(g.node(0).request_view_change({}));
  sim.run();
  EXPECT_GT(g.node(0).stats().last_change_latency, sim::Duration::zero());
  EXPECT_LT(g.node(0).stats().last_change_latency, sim::Duration::seconds(1.0));
}

TEST(Node, StabilityGossipCollectsDeliveredHistory) {
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::EmptyRelation>());
  cfg.node.stability_interval = sim::Duration::millis(20);
  Group g(sim, cfg);
  // Everyone consumes instantly; after gossip settles, nothing of the
  // delivered history needs to stay buffered.
  for (std::size_t i = 0; i < 3; ++i) {
    g.node(i).set_deliverable_callback([&g, i] { g.drain(i); });
    g.drain(i);
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::none()));
    sim.run_until(sim.now() + sim::Duration::millis(2));
  }
  sim.run();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(g.node(i).delivered_retained(), 0u) << i;
    EXPECT_GT(g.node(i).stats().stability_gcs, 0u) << i;
  }
}

TEST(Node, StabilityDisabledKeepsHistoryUntilViewChange) {
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::EmptyRelation>());
  cfg.node.stability_interval = sim::Duration::zero();  // disabled
  Group g(sim, cfg);
  g.node(1).set_deliverable_callback([&g] { g.drain(1); });
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::none()));
  }
  sim.run();
  g.drain(1);
  EXPECT_EQ(g.node(1).delivered_retained(), 30u);
  // The view change resets the history.
  ASSERT_TRUE(g.node(0).request_view_change({}));
  sim.run();
  EXPECT_EQ(g.node(1).delivered_retained(), 0u);
}

TEST(Node, UnreportingMemberBlocksStabilityCollection) {
  // A member that reports nothing (here: crashed) freezes the stable
  // floor, so the survivors' histories grow until a membership change
  // excludes it — the §2.1 buffer-exhaustion story.
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::EmptyRelation>());
  cfg.node.stability_interval = sim::Duration::millis(20);
  cfg.auto_membership = false;  // keep the dead member in the view
  Group g(sim, cfg);
  g.node(1).set_deliverable_callback([&g] { g.drain(1); });
  g.drain(1);
  g.crash(2);
  sim.run_until(sim.now() + sim::Duration::millis(100));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::none()));
    sim.run_until(sim.now() + sim::Duration::millis(5));
  }
  sim.run_until(sim.now() + sim::Duration::seconds(1.0));
  // Node 1 delivered everything but cannot collect: the crashed member
  // never acknowledged.
  EXPECT_EQ(g.node(1).delivered_retained(), 20u);
}

TEST(Node, StabilityKeepsPredViewSmall) {
  // The operational payoff: after heavy traffic, a view change agrees on a
  // small pred-view because the stable prefix was collected everywhere.
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::EmptyRelation>());
  cfg.node.stability_interval = sim::Duration::millis(20);
  Group g(sim, cfg);
  for (std::size_t i = 0; i < 3; ++i) {
    g.node(i).set_deliverable_callback([&g, i] { g.drain(i); });
    g.drain(i);
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::none()));
    sim.run_until(sim.now() + sim::Duration::millis(2));
  }
  sim.run();
  ASSERT_TRUE(g.node(1).request_view_change({}));
  sim.run();
  EXPECT_EQ(g.node(0).current_view().id(), ViewId(1));
  // Far fewer than the 100 messages of the view.
  EXPECT_LT(g.node(0).stats().last_flush_total, 10u);
}


TEST(Node, PurgeDebtLedgerClosesKEnumGcVsPredRace) {
  // Regression for the residual GC-vs-pred race the PR 4 explorer left as
  // an open item (old DESIGN.md §7): k-enumeration, sender-side purging,
  // and the gap's only in-channel cover dying with an excluded sender.
  //
  // The construction: p0 multicasts f0, m1, f1, m3 (k = 2; m3's bitmap
  // covers m1 at distance 2).  p2 is a slow consumer at delivery capacity
  // 1, so m1 stalls in p0's outgoing buffer towards it and is purged there
  // when m3 is multicast; p2 later frees one slot and accepts the
  // *unrelated* f1, so its raw reception high-water (3) jumps m1's seq (2)
  // without p2 ever holding m1 or any cover of it.  p1 stops consuming
  // after m1, so m3 also never reaches p1.  Then p0 crashes and is
  // excluded — m3 dies with it (stale-view-dropped at p2 after install).
  //
  // Under the old mark-based GC the floor min(4, 3, 3) = 3 >= 2 collected
  // m1 from p1's delivered history, the agreed pred-view lost every trace
  // of m1, and p2 installed the next view having delivered neither m1 nor
  // a cover — the §3.2 violation.  Under the ledger, p2's *covered
  // frontier* for p0's channel stays at 1 (the debt 2 -> 4 resolves to a
  // cover p2 never received), m1 survives in p1's history, and the t7
  // flush repairs p2 in per-sender seq position.
  sim::Simulator sim;
  // Ground truth for the checker: the true obsolescence order, closed —
  // here just m1 ≺ m3 (the k-enum bitmaps under-declare nothing else).
  auto truth = std::make_shared<obs::ExplicitRelation>();
  truth->add(net::ProcessId(0), 2, net::ProcessId(0), 4);
  SpecChecker checker(truth);
  auto cfg = base_config(std::make_shared<obs::KEnumRelation>(), &checker);
  cfg.node.delivery_capacity = 1;
  Group g(sim, cfg);
  sim.run_until(sim.now() + sim::Duration::millis(1));
  for (std::size_t i = 0; i < 3; ++i) g.drain(i);  // initial views

  obs::BatchComposer composer({obs::AnnotationKind::k_enum, 2, 0});
  const auto send = [&](std::uint64_t item, std::uint64_t seq) {
    ASSERT_EQ(g.node(0).multicast(blob(static_cast<int>(seq)),
                                  composer.single(item, seq)),
              seq);
  };

  send(50, 1);  // f0: fills p2's one delivery slot
  sim.run_until(sim.now() + sim::Duration::millis(5));
  g.drain(0);
  g.drain(1);
  send(7, 2);   // m1: p1 consumes it; p2 refuses (full) -> stalls in channel
  sim.run_until(sim.now() + sim::Duration::millis(5));
  g.drain(0);
  g.drain(1);
  send(60, 3);  // f1: p1 accepts but never consumes (full from here on)
  sim.run_until(sim.now() + sim::Duration::millis(3));
  g.drain(0);
  send(7, 4);   // m3: covers m1 (distance 2) -> purges it towards p2
  sim.run_until(sim.now() + sim::Duration::millis(3));
  g.drain(0);

  // The purge became a wire fact.
  EXPECT_EQ(g.node(0).stats().debts_recorded, 1u);

  // Let the stability gossip settle, then free exactly one slot at p2: the
  // link retries and p2 accepts f1 — the mark-jumper — while m3 stays
  // stalled behind it.
  sim.run_until(sim.now() + sim::Duration::millis(150));
  const auto f0_delivery = g.node(2).try_deliver();
  ASSERT_TRUE(f0_delivery.has_value());
  sim.run_until(sim.now() + sim::Duration::millis(150));

  // The exact divergence that made raw marks unsound: p2's high-water
  // jumped the purged gap, its covered frontier did not.
  EXPECT_EQ(g.node(2).stability_ledger().high_water(net::ProcessId(0)), 3u);
  EXPECT_EQ(g.node(2).stability_ledger().frontier(net::ProcessId(0)), 1u);

  // f0 (seq 1) is stable and collected at p1; m1 (seq 2) must NOT be — the
  // old mark-based GC collected it here, which is the bug.
  EXPECT_GT(g.node(1).stats().stability_gcs, 0u);
  ASSERT_EQ(g.node(1).delivered_retained(), 1u);

  // p0 dies; the policy excludes it; m3 dies in its stalled channel.
  g.crash(0);
  sim.run_until(sim.now() + sim::Duration::millis(400));

  const auto at_p1 = g.drain(1);
  const auto at_p2 = g.drain(2);
  ASSERT_EQ(views_of(at_p2).size(), 1u);  // installed the exclusion view
  std::vector<std::uint64_t> p2_seqs;
  for (const auto& m : data_of(at_p2)) p2_seqs.push_back(m->seq());
  // The flush repaired the purged gap in per-sender seq position: m1
  // before the queued f1, no retro-delivery needed.
  EXPECT_EQ(p2_seqs, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(g.node(2).stats().flushed_in, 1u);

  // And the histories agree with §3.2 under the ground truth.
  EXPECT_TRUE(checker.verify().empty());
}

TEST(Node, PurgeDebtLedgerStaysBounded) {
  // Debts retire once every member's frontier passed them: after a
  // purge-heavy run settles, the ledger must be empty again — on every
  // node, for both own and merged debts.
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::KEnumRelation>());
  cfg.node.delivery_capacity = 2;
  cfg.node.out_capacity = 8;
  Group g(sim, cfg);
  g.node(0).set_deliverable_callback([&g] { g.drain(0); });
  g.node(1).set_deliverable_callback([&g] { g.drain(1); });
  g.drain(0);
  g.drain(1);
  g.drain(2);
  // Three items cycle, so p2's two delivery slots fill with two of them
  // and the third's arrival is refused — the channel backs up, and every
  // fresh multicast purges its same-item predecessors out of the backlog
  // (k = 16 reaches across it), recording debts.
  obs::BatchComposer composer({obs::AnnotationKind::k_enum, 16, 0});
  std::uint64_t seq = 1;
  for (int step = 0; step < 120; ++step) {
    if (g.node(0).can_multicast()) {
      ASSERT_TRUE(g.node(0).multicast(blob(static_cast<int>(seq)),
                                      composer.single(7 + seq % 3, seq)));
      ++seq;
    }
    sim.run_until(sim.now() + sim::Duration::millis(2));
    if (step % 20 == 19) g.drain(2);
  }
  // From here p2 consumes instantly, so the stalled backlog drains and the
  // gossip settles to quiescence.
  g.node(2).set_deliverable_callback([&g] { g.drain(2); });
  g.drain(2);
  sim.run();

  EXPECT_GT(g.node(0).stats().debts_recorded, 0u);
  EXPECT_GT(g.node(0).stats().debt_entries_gossiped, 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(g.node(i).stability_ledger().own_debts(), 0u) << i;
    EXPECT_EQ(g.node(i).stability_ledger().merged_debts(), 0u) << i;
    EXPECT_EQ(g.node(i).delivered_retained(), 0u) << i;
  }
  EXPECT_EQ(g.node(0).stats().debts_collected,
            g.node(0).stats().debts_recorded);
}

TEST(Node, DigestRingRetiresRelayedDebts) {
  // At 16 members stability rounds go to two ring successors and relay
  // what they learned, debts included (DESIGN.md §11).  The debts a node
  // keeps for relay must retire once the origin's floor passes them, like
  // the ledger's own and merged debts; otherwise every full round re-ships
  // all of them until the next view change.  bench_micro's stability_debt
  // shape at n = 16: p15 consumes 100/s from two delivery slots against
  // three cycling items, so p0's backlog towards it purges and records
  // debts, and the others relay them.
  constexpr std::size_t kNodes = 16;
  constexpr std::size_t kMessages = 4000;
  class Opaque final : public Payload {
   public:
    [[nodiscard]] std::size_t wire_size() const override { return 16; }
  };
  sim::Simulator sim;
  Group::Config cfg;
  cfg.size = kNodes;
  cfg.node.relation = std::make_shared<obs::KEnumRelation>();
  cfg.node.delivery_capacity = 2;
  cfg.node.out_capacity = 10;
  cfg.auto_membership = false;
  Group g(sim, cfg);
  std::vector<std::unique_ptr<workload::InstantConsumer>> instant;
  for (std::size_t i = 0; i + 1 < kNodes; ++i) {
    instant.push_back(
        std::make_unique<workload::InstantConsumer>(sim, g.node(i)));
    instant.back()->start();
  }
  workload::RateConsumer slow(sim, g.node(kNodes - 1), 100.0);
  slow.start();
  obs::BatchComposer composer({obs::AnnotationKind::k_enum, 12, 0});
  std::size_t produced = 0;
  std::function<void()> produce = [&] {
    if (produced >= kMessages) return;
    obs::BatchComposer trial = composer;
    const auto annotation = trial.single(produced % 3, g.node(0).next_seq());
    if (g.node(0).multicast(std::make_shared<Opaque>(), annotation)) {
      composer = std::move(trial);
      ++produced;
    }
    sim.schedule_after(sim::Duration::micros(500), produce);
  };
  sim.schedule_after(sim::Duration::micros(500), produce);
  const auto deadline = sim::TimePoint::origin() + sim::Duration::seconds(60.0);
  while (sim.now() < deadline && produced < kMessages) {
    sim.run_until(sim.now() + sim::Duration::seconds(1.0));
  }
  ASSERT_EQ(produced, kMessages);
  sim.run();  // drain + gossip quiescence

  EXPECT_TRUE(g.node(0).relays());
  EXPECT_GT(g.node(0).stats().debts_recorded, 0u);
  EXPECT_GT(g.node(0).stats().digest_rounds, 0u);
  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(g.node(i).delivered_retained(), 0u) << i;
    EXPECT_EQ(g.node(i).stability_ledger().own_debts(), 0u) << i;
    EXPECT_EQ(g.node(i).stability_ledger().merged_debts(), 0u) << i;
    EXPECT_EQ(g.node(i).relayed_debts(), 0u) << i;
  }
  // The ring's golden: retiring relayed debts shrinks what rounds carry,
  // never when they are sent.
  EXPECT_EQ(g.network().stats().sent, 61'590u);
  EXPECT_EQ(sim.executed(), 123'216u);
}

TEST(Node, FlushSafeWhenClippedRepresentationBreaksTransitivity) {
  // Regression for DESIGN.md §3(8).  With k = 2, a purge chain
  // m1 (seq1) ≺ m2 (seq3) ≺ m3 (seq5) loses the transitive edge m1 ≺ m3
  // (distance 4 > k).  A receiver that purged m1 and m2 holds only m3; the
  // agreed pred-view still contains m1 (fast members delivered it), and a
  // naive t7 flush would re-deliver the stale m1 *after* m3.  The
  // reception high-water filter must skip it.
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::KEnumRelation>());
  cfg.node.stability_interval = sim::Duration::zero();  // keep history
  Group g(sim, cfg);
  g.node(0).set_deliverable_callback([&g] { g.drain(0); });
  g.node(1).set_deliverable_callback([&g] { g.drain(1); });
  g.drain(0);
  g.drain(1);
  // Node 2 consumes nothing: the chain purges inside its delivery queue.

  obs::BatchComposer composer({obs::AnnotationKind::k_enum, 2, 0});
  const auto send = [&](std::uint64_t item, std::uint64_t seq) {
    ASSERT_EQ(g.node(0).multicast(blob(static_cast<int>(seq)),
                                  composer.single(item, seq)),
              seq);
    sim.run();
  };
  send(7, 1);    // m1
  send(100, 2);  // filler (one-shot item)
  send(7, 3);    // m2: declares seq1 (distance 2)
  send(101, 4);  // filler
  send(7, 5);    // m3: declares seq3; the inherited seq1 bit clips at k=2

  // The chain purged m1 and m2 at node 2.
  EXPECT_EQ(g.node(2).stats().purged_delivery, 2u);
  EXPECT_EQ(g.node(2).delivery_data_count(), 3u);  // seqs 2, 4, 5

  ASSERT_TRUE(g.node(1).request_view_change({}));
  sim.run();

  const auto msgs = data_of(g.drain(2));
  std::vector<std::uint64_t> seqs;
  for (const auto& m : msgs) seqs.push_back(m->seq());
  // Strictly increasing (FIFO clause (i)) and without the stale seq 1/3.
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{2, 4, 5}));
}

TEST(Node, QuiescentGossipCollectsPromptlyThenGoesSilent) {
  // A 10-message burst, then silence.  The clock starts only once every
  // member has delivered the whole burst: before that the delivered
  // history is empty and trivially "collected".  Collection must finish
  // within 101 ms of virtual time, the figure the retired fixed-cadence
  // gossip (one round per member per interval) needed for this burst;
  // quiescent gossip needs about half.  Afterwards the converged group
  // falls fully silent: no gossip, no heartbeats, the timer itself parks.
  sim::Simulator sim;
  Group g(sim, base_config(std::make_shared<obs::EmptyRelation>()));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        g.node(0).multicast(blob(i), obs::Annotation::none()).has_value());
  }
  const auto burst_delivered = [](const Node& node) {
    return node.stats().delivered_data == 10;
  };
  const auto collected = [](const Node& node) {
    return node.delivered_retained() == 0 &&
           node.stability_ledger().own_debts() == 0 &&
           node.stability_ledger().merged_debts() == 0;
  };
  const auto everywhere = [&g](const auto& holds) {
    for (std::size_t n = 0; n < 3; ++n) {
      if (!holds(g.node(n))) return false;
    }
    return true;
  };
  // Advances in 1 ms steps, every member consuming as it goes.
  const auto run_until_everywhere = [&](const auto& holds) {
    const auto deadline = sim.now() + sim::Duration::seconds(10.0);
    while (!everywhere(holds) && sim.now() < deadline) {
      sim.run_until(sim.now() + sim::Duration::millis(1));
      for (std::size_t n = 0; n < 3; ++n) g.drain(n);
    }
    return everywhere(holds);
  };
  ASSERT_TRUE(run_until_everywhere(burst_delivered));
  ASSERT_FALSE(everywhere(collected)) << "the clock must start before it";
  const auto start = sim.now();
  ASSERT_TRUE(run_until_everywhere(collected))
      << "quiescent gossip failed to collect";
  EXPECT_LE((sim.now() - start).as_micros(), 101'000);

  // Let the residual rounds settle (the trackers exchange their last
  // frontier moves for a few intervals after the group-level predicate
  // turns true), then measure ten virtual seconds of pure idleness.
  sim.run_until(sim.now() + sim::Duration::seconds(2.0));
  const std::uint64_t sends_before = g.network().stats().sent;
  sim.run_until(sim.now() + sim::Duration::seconds(10.0));
  EXPECT_EQ(g.network().stats().sent, sends_before)
      << "a converged group must stop gossiping";
  std::uint64_t piggybacks = 0;
  for (std::size_t n = 0; n < 3; ++n) {
    piggybacks += g.node(n).stats().frontier_piggybacks;
  }
  EXPECT_GT(piggybacks, 0u) << "no frontier rode the data burst";
}

TEST(Node, QuiescentHeartbeatsAreBudgetedWhenCollectionIsStuck) {
  // A dead member that auto-membership is NOT allowed to exclude freezes
  // the stable floor: the survivors' rounds go clean while collection
  // stays outstanding.  Quiescence must suppress most of those rounds,
  // escalate every silent_round_period-th to a full heartbeat, and — once
  // heartbeat_budget heartbeats in a row observe no progress — park the
  // timer entirely rather than tick against the dead floor forever.
  sim::Simulator sim;
  auto cfg = base_config(std::make_shared<obs::EmptyRelation>());
  cfg.node.stability_interval = sim::Duration::millis(20);
  cfg.auto_membership = false;  // keep the dead member in the view
  Group g(sim, cfg);
  g.node(1).set_deliverable_callback([&g] { g.drain(1); });
  g.drain(1);
  g.crash(2);
  sim.run_until(sim.now() + sim::Duration::millis(100));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(g.node(0).multicast(blob(i), obs::Annotation::none()));
    sim.run_until(sim.now() + sim::Duration::millis(5));
  }
  sim.run_until(sim.now() + sim::Duration::seconds(5.0));

  std::uint64_t suppressed = 0;
  std::uint64_t heartbeats = 0;
  for (std::size_t n = 0; n < 2; ++n) {
    suppressed += g.node(n).stats().gossip_rounds_suppressed;
    heartbeats += g.node(n).stats().gossip_heartbeats;
  }
  EXPECT_GT(suppressed, 0u) << "clean unconverged rounds were all sent";
  EXPECT_GT(heartbeats, 0u) << "silence was never escalated to a heartbeat";

  // Budget exhausted: the timers are parked, so a long further stretch of
  // wall-to-wall idleness adds zero traffic — and the history really is
  // still uncollectable (this is the §2.1 frozen-floor scenario, which
  // only a membership change can clear).
  const std::uint64_t sends_before = g.network().stats().sent;
  sim.run_until(sim.now() + sim::Duration::seconds(10.0));
  EXPECT_EQ(g.network().stats().sent, sends_before)
      << "a parked group kept gossiping at the dead floor";
  EXPECT_EQ(g.node(1).delivered_retained(), 20u);
}

}  // namespace
}  // namespace svs::core
