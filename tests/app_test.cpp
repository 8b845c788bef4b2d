// Tests for the replicated applications: ItemTable batch atomicity and the
// primary-backup KvStore.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "app/item_table.hpp"
#include "app/kv_store.hpp"
#include "core/group.hpp"
#include "obs/relation.hpp"
#include "sim/random.hpp"
#include "workload/consumer.hpp"
#include "workload/item_op.hpp"

namespace svs::app {
namespace {

using workload::ItemOp;
using workload::OpKind;

core::Delivery op(OpKind kind, workload::ItemId item, std::uint64_t value,
                  bool commit, std::uint64_t round = 0) {
  // Sender/seq/view are irrelevant to the table; use fixed ids.
  static std::uint64_t seq = 0;
  auto payload = std::make_shared<ItemOp>(kind, item, value, round, commit);
  auto msg = std::make_shared<core::DataMessage>(
      net::ProcessId(0), ++seq, core::ViewId(0), obs::Annotation::none(),
      payload);
  return core::Delivery{core::DataDelivery{msg}};
}

TEST(ItemTable, AppliesBatchOnlyAtCommit) {
  ItemTable t;
  t.apply(op(OpKind::update, 1, 10, false));
  t.apply(op(OpKind::update, 2, 20, false));
  EXPECT_EQ(t.size(), 0u);  // uncommitted
  EXPECT_EQ(t.pending_ops(), 2u);
  t.apply(op(OpKind::update, 3, 30, true));
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.pending_ops(), 0u);
  EXPECT_EQ(t.batches_applied(), 1u);
  EXPECT_EQ(t.ops_applied(), 3u);
  EXPECT_EQ(t.get(1)->value, 10u);
  EXPECT_EQ(t.get(2)->value, 20u);
  EXPECT_EQ(t.get(3)->value, 30u);
}

TEST(ItemTable, CreateUpdateDestroyLifecycle) {
  ItemTable t;
  t.apply(op(OpKind::create, 9, 1, true));
  EXPECT_EQ(t.get(9)->value, 1u);
  t.apply(op(OpKind::update, 9, 2, true));
  EXPECT_EQ(t.get(9)->value, 2u);
  t.apply(op(OpKind::destroy, 9, 0, true));
  EXPECT_FALSE(t.get(9).has_value());
}

TEST(ItemTable, DuplicateCreateRejected) {
  ItemTable t;
  t.apply(op(OpKind::create, 9, 1, true));
  EXPECT_THROW(t.apply(op(OpKind::create, 9, 1, true)),
               util::ContractViolation);
}

TEST(ItemTable, DestroyOfUnknownItemTolerated) {
  // All prior writes of the item may have been purged (§4.1 merge case).
  ItemTable t;
  t.apply(op(OpKind::destroy, 9, 0, true));
  EXPECT_EQ(t.size(), 0u);
}

TEST(ItemTable, MergedBatchesApplyInFifoOrder) {
  // Batch 1 lost its commit to purging; its survivor merges into batch 2.
  // FIFO order makes the newer value win.
  ItemTable t;
  t.apply(op(OpKind::update, 1, 10, false));  // survivor of batch 1
  t.apply(op(OpKind::update, 1, 11, false));  // batch 2
  t.apply(op(OpKind::update, 2, 22, true));   // commit of batch 2
  EXPECT_EQ(t.get(1)->value, 11u);
  EXPECT_EQ(t.get(2)->value, 22u);
  EXPECT_EQ(t.batches_applied(), 1u);
}

TEST(ItemTable, DigestChangesWithState) {
  ItemTable a, b;
  a.apply(op(OpKind::update, 1, 10, true));
  b.apply(op(OpKind::update, 1, 11, true));
  EXPECT_NE(a.digest(), b.digest());
  b.apply(op(OpKind::update, 1, 10, true));
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(ItemTable, RunningDigestMatchesAFreshTableOfTheSurvivors) {
  // A seeded mix of creates, updates (upserts included) and destroys of
  // present and absent items, in one-op batches.
  sim::Rng rng(42);
  ItemTable mixed;
  std::map<workload::ItemId, std::uint64_t> model;
  for (int i = 0; i < 2'000; ++i) {
    const workload::ItemId id = rng.below(64);
    const std::uint64_t value = rng.next_u64();
    const std::uint64_t pick = rng.below(3);
    if (pick == 0 && !model.contains(id)) {
      mixed.apply(op(OpKind::create, id, value, true));
      model[id] = value;
    } else if (pick == 2) {
      mixed.apply(op(OpKind::destroy, id, 0, true));
      model.erase(id);
    } else {
      mixed.apply(op(OpKind::update, id, value, true));
      model[id] = value;
    }
  }
  ASSERT_FALSE(model.empty());
  ASSERT_EQ(mixed.size(), model.size());

  ItemTable fresh;
  for (const auto& [id, value] : model) {
    fresh.apply(op(OpKind::create, id, value, true));
  }
  EXPECT_EQ(mixed.digest(), fresh.digest());

  // One value changed anywhere changes the digest; restoring it restores
  // the digest.
  const auto& [id, value] = *model.begin();
  fresh.apply(op(OpKind::update, id, value + 1, true));
  EXPECT_NE(mixed.digest(), fresh.digest());
  fresh.apply(op(OpKind::update, id, value, true));
  EXPECT_EQ(mixed.digest(), fresh.digest());
}

TEST(ItemTable, RecordsDigestAtViewInstall) {
  ItemTable t;
  t.apply(op(OpKind::update, 1, 10, true));
  t.apply(core::Delivery{core::ViewDelivery{
      core::View(core::ViewId(1), {net::ProcessId(0)})}});
  ASSERT_TRUE(t.digests_at_install().contains(1));
  EXPECT_EQ(t.digests_at_install().at(1), t.digest());
}

// ---------------------------------------------------------------------------
// KvStore over a live group.
// ---------------------------------------------------------------------------

struct KvFixture : ::testing::Test {
  static constexpr std::size_t kN = 3;

  KvFixture() {
    core::Group::Config cfg;
    cfg.size = kN;
    cfg.node.relation = std::make_shared<obs::KEnumRelation>();
    group = std::make_unique<core::Group>(sim, cfg);
    for (std::size_t i = 0; i < kN; ++i) {
      stores.push_back(std::make_unique<KvStore>(group->node(i), KvStore::Config{}));
      consumers.push_back(std::make_unique<workload::InstantConsumer>(
          sim, group->node(i)));
      auto* store = stores.back().get();
      consumers.back()->set_sink(
          [store](const core::Delivery& d) { store->apply(d); });
      consumers.back()->start();
    }
    sim.run();  // applies the initial view
  }

  sim::Simulator sim;
  std::unique_ptr<core::Group> group;
  std::vector<std::unique_ptr<KvStore>> stores;
  std::vector<std::unique_ptr<workload::InstantConsumer>> consumers;
};

TEST_F(KvFixture, LowestRankedMemberIsPrimary) {
  EXPECT_TRUE(stores[0]->is_primary());
  EXPECT_FALSE(stores[1]->is_primary());
  EXPECT_FALSE(stores[2]->is_primary());
}

TEST_F(KvFixture, PutReplicatesToAll) {
  ASSERT_TRUE(stores[0]->put("alpha", 1));
  ASSERT_TRUE(stores[0]->put("beta", 2));
  sim.run();
  for (const auto& s : stores) {
    EXPECT_EQ(s->get("alpha"), 1u);
    EXPECT_EQ(s->get("beta"), 2u);
    EXPECT_FALSE(s->get("gamma").has_value());
  }
}

TEST_F(KvFixture, NonPrimaryWritesRejected) {
  EXPECT_FALSE(stores[1]->put("alpha", 1));
  EXPECT_FALSE(stores[2]->erase("alpha"));
}

TEST_F(KvFixture, MultiKeyTransactionIsAtomic) {
  ASSERT_TRUE(stores[0]->put_all({{"a", 1}, {"b", 2}, {"c", 3}}));
  sim.run();
  for (const auto& s : stores) {
    EXPECT_EQ(s->get("a"), 1u);
    EXPECT_EQ(s->get("b"), 2u);
    EXPECT_EQ(s->get("c"), 3u);
    EXPECT_EQ(s->table().batches_applied(), 1u);  // one atomic batch
  }
}

TEST_F(KvFixture, OverwritesConverge) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(stores[0]->put("hot", static_cast<std::uint64_t>(i)));
  }
  sim.run();
  for (const auto& s : stores) {
    EXPECT_EQ(s->get("hot"), 49u);
  }
  // Digests agree everywhere.
  EXPECT_EQ(stores[0]->digest(), stores[1]->digest());
  EXPECT_EQ(stores[1]->digest(), stores[2]->digest());
}

TEST_F(KvFixture, EraseRemovesEverywhere) {
  ASSERT_TRUE(stores[0]->put("doomed", 9));
  sim.run();
  ASSERT_TRUE(stores[0]->erase("doomed"));
  sim.run();
  for (const auto& s : stores) {
    EXPECT_FALSE(s->get("doomed").has_value());
  }
  EXPECT_FALSE(stores[0]->erase("never-existed"));
}

TEST_F(KvFixture, FailoverPromotesNextReplica) {
  ASSERT_TRUE(stores[0]->put("before", 1));
  sim.run();
  group->crash(0);
  sim.run();
  // Membership policy excluded the primary; replica 1 takes over.
  ASSERT_TRUE(stores[1]->applied_view().has_value());
  EXPECT_EQ(stores[1]->applied_view()->id(), core::ViewId(1));
  EXPECT_TRUE(stores[1]->is_primary());
  EXPECT_FALSE(stores[2]->is_primary());
  // State survived and writes continue.
  EXPECT_EQ(stores[1]->get("before"), 1u);
  ASSERT_TRUE(stores[1]->put("after", 2));
  sim.run();
  EXPECT_EQ(stores[2]->get("after"), 2u);
  EXPECT_EQ(stores[1]->digest(), stores[2]->digest());
}

TEST_F(KvFixture, StateConvergesAtViewInstallation) {
  const std::string keys[] = {"k0", "k1", "k2", "k3", "k4"};
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(stores[0]->put(keys[i % 5], static_cast<std::uint64_t>(i)));
  }
  ASSERT_TRUE(group->node(2).request_view_change({}));
  sim.run();
  // The paper's claim: same state when the new view is installed.
  const auto& d0 = stores[0]->table().digests_at_install();
  const auto& d1 = stores[1]->table().digests_at_install();
  const auto& d2 = stores[2]->table().digests_at_install();
  ASSERT_TRUE(d0.contains(1) && d1.contains(1) && d2.contains(1));
  EXPECT_EQ(d0.at(1), d1.at(1));
  EXPECT_EQ(d1.at(1), d2.at(1));
}

}  // namespace
}  // namespace svs::app
