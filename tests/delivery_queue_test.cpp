// Unit tests for the DeliveryQueue, centred on its indexed purging: every
// operation must agree with a brute-force model that scans the whole queue,
// while the queue itself never examines foreign senders' entries and does
// sub-linear work per arrival.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/delivery_queue.hpp"
#include "core/message.hpp"
#include "core/observer.hpp"
#include "obs/batch.hpp"
#include "obs/relation.hpp"
#include "sim/random.hpp"

namespace svs::core {
namespace {

const ViewId kView{0};

DataMessagePtr msg(std::uint32_t sender, std::uint64_t seq,
                   obs::Annotation annotation = obs::Annotation::none(),
                   ViewId view = kView) {
  return std::make_shared<DataMessage>(net::ProcessId(sender), seq, view,
                                       std::move(annotation), nullptr);
}

/// Collects on_purge victims so the queue's purge history can be diffed
/// against the model's.
class PurgeRecorder final : public NodeObserver {
 public:
  void on_purge(net::ProcessId, const DataMessagePtr& victim,
                const DataMessagePtr& by) override {
    victims.emplace_back(victim->id(), by->id());
  }
  std::vector<std::pair<MsgId, MsgId>> victims;
};

/// Delegates to an inner relation while recording which candidate senders
/// each covers() query touched.
class SpyRelation final : public obs::Relation {
 public:
  explicit SpyRelation(std::shared_ptr<const obs::Relation> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] bool covers(const obs::MessageRef& newer,
                            const obs::MessageRef& older) const override {
    queried_senders.insert(newer.sender);
    queried_senders.insert(older.sender);
    return inner_->covers(newer, older);
  }
  [[nodiscard]] std::uint64_t coverage_floor(
      const obs::MessageRef& newer) const override {
    return inner_->coverage_floor(newer);
  }
  [[nodiscard]] const char* name() const override { return "spy"; }

  mutable std::set<net::ProcessId> queried_senders;

 private:
  std::shared_ptr<const obs::Relation> inner_;
};

TEST(DeliveryQueue, FifoOrderAndCounts) {
  DeliveryQueue q(std::make_shared<obs::EmptyRelation>(), net::ProcessId(0),
                  nullptr);
  q.push_view(View(kView, {net::ProcessId(0)}));
  q.push_data(msg(1, 1));
  q.push_data(msg(2, 1));
  EXPECT_EQ(q.length(), 3u);
  EXPECT_EQ(q.data_count(), 2u);
  EXPECT_TRUE(q.accepted(MsgId{net::ProcessId(1), 1}));

  auto e1 = q.pop_front();
  ASSERT_TRUE(e1.has_value());
  EXPECT_TRUE(e1->view.has_value());
  auto e2 = q.pop_front();
  ASSERT_TRUE(e2.has_value());
  EXPECT_EQ(e2->data->sender(), net::ProcessId(1));
  // Delivery moves a message out of the queue but not out of the accepted
  // set (it is recorded in the delivered history by the node).
  EXPECT_TRUE(q.accepted(MsgId{net::ProcessId(1), 1}));
  EXPECT_EQ(q.data_count(), 1u);
  auto e3 = q.pop_front();
  ASSERT_TRUE(e3.has_value());
  EXPECT_FALSE(q.pop_front().has_value());
}

TEST(DeliveryQueue, CollectDeliveredRespectsFloors) {
  DeliveryQueue q(std::make_shared<obs::EmptyRelation>(), net::ProcessId(0),
                  nullptr);
  for (std::uint64_t s = 1; s <= 5; ++s) {
    q.push_data(msg(1, s));
    auto e = q.pop_front();
    q.record_delivered(e->data);
  }
  EXPECT_EQ(q.delivered_retained(), 5u);
  const auto collected = q.collect_delivered(
      [](net::ProcessId) { return std::uint64_t{3}; });
  EXPECT_EQ(collected, 3u);
  EXPECT_EQ(q.delivered_retained(), 2u);
  EXPECT_FALSE(q.accepted(MsgId{net::ProcessId(1), 3}));
  EXPECT_TRUE(q.accepted(MsgId{net::ProcessId(1), 4}));
}

TEST(DeliveryQueue, CollectTrustsTheLedgerFloorsUnconditionally) {
  // One GC rule for every relation (DESIGN.md §3/§7): the floors come from
  // the StabilityLedger's covered frontiers, which never pass a seq whose
  // §3.2 obligation is not yet discharged everywhere — so the queue
  // collects everything at or below them, with no retained-cover insurance
  // and no per-relation policy.  Per-sender floors are respected exactly.
  DeliveryQueue q(std::make_shared<obs::ItemTagRelation>(), net::ProcessId(0),
                  nullptr);
  for (const auto& [sender, seq] :
       std::vector<std::pair<std::uint32_t, std::uint64_t>>{
           {1, 1}, {2, 1}, {1, 2}, {2, 2}, {1, 3}}) {
    q.push_data(msg(sender, seq, obs::Annotation::item(4)));
    auto e = q.pop_front();
    q.record_delivered(e->data);
  }
  const auto collected = q.collect_delivered([](net::ProcessId sender) {
    return sender == net::ProcessId(1) ? std::uint64_t{2} : std::uint64_t{1};
  });
  EXPECT_EQ(collected, 3u);  // 1#1, 1#2, 2#1
  EXPECT_EQ(q.delivered_retained(), 2u);
  EXPECT_FALSE(q.accepted(MsgId{net::ProcessId(1), 1}));
  EXPECT_FALSE(q.accepted(MsgId{net::ProcessId(1), 2}));
  EXPECT_TRUE(q.accepted(MsgId{net::ProcessId(1), 3}));
  EXPECT_FALSE(q.accepted(MsgId{net::ProcessId(2), 1}));
  EXPECT_TRUE(q.accepted(MsgId{net::ProcessId(2), 2}));
}

TEST(DeliveryQueue, PushDataFlushInsertsInPerSenderSeqPosition) {
  DeliveryQueue q(std::make_shared<obs::ItemTagRelation>(), net::ProcessId(0),
                  nullptr);
  q.push_data(msg(1, 2));
  q.push_data(msg(2, 1));
  q.push_data(msg(1, 4));
  // A flush repair of sender 1's gap seq 3 lands before its queued seq 4.
  q.push_data_flush(msg(1, 3));
  // No queued higher seq for sender 2: its repair appends at the tail.
  q.push_data_flush(msg(2, 5));
  std::vector<MsgId> order;
  while (auto e = q.pop_front()) order.push_back(e->data->id());
  const std::vector<MsgId> expected{
      {net::ProcessId(1), 2}, {net::ProcessId(2), 1}, {net::ProcessId(1), 3},
      {net::ProcessId(1), 4}, {net::ProcessId(2), 5}};
  EXPECT_EQ(order, expected);
}

TEST(DeliveryQueue, IndexedPurgeNeverTouchesForeignSenders) {
  const auto spy =
      std::make_shared<SpyRelation>(std::make_shared<obs::ItemTagRelation>());
  DeliveryQueue q(spy, net::ProcessId(0), nullptr);
  // Sender 1 updates item 7; senders 2 and 3 fill the queue with noise.
  for (std::uint64_t s = 1; s <= 10; ++s) {
    q.push_data(msg(1, s, obs::Annotation::item(7)));
    q.push_data(msg(2, s, obs::Annotation::item(7)));
    q.push_data(msg(3, s, obs::Annotation::item(s)));
  }
  spy->queried_senders.clear();
  const auto by = msg(1, 11, obs::Annotation::item(7));
  EXPECT_EQ(q.count_victims(*by, kView), 10u);
  EXPECT_EQ(q.purge_with(by, kView), 10u);
  EXPECT_TRUE(q.covered_by_accepted(*msg(1, 5, obs::Annotation::item(9)),
                                    kView) == false);
  EXPECT_EQ(spy->queried_senders,
            (std::set<net::ProcessId>{net::ProcessId(1)}));
}

TEST(DeliveryQueue, CoverageFloorBoundsScanWork) {
  // With a k-enum horizon of 4, an arrival can cover at most the 4
  // preceding seqs: the indexed purge must examine O(k) candidates however
  // long the sender's backlog is.
  const std::size_t k = 4;
  DeliveryQueue q(std::make_shared<obs::KEnumRelation>(), net::ProcessId(0),
                  nullptr);
  obs::BatchComposer composer({obs::AnnotationKind::k_enum, k, 0});
  for (std::uint64_t s = 1; s <= 200; ++s) {
    q.push_data(msg(1, s, composer.single(/*item=*/7, s)));
  }
  const auto before = q.stats().purge_scan_steps;
  const auto by = msg(1, 201, composer.single(7, 201));
  q.purge_with(by, kView);
  EXPECT_LE(q.stats().purge_scan_steps - before, k);
}

// ---------------------------------------------------------------------------
// Randomized model check: over generated traces, the indexed queue must
// agree with a brute-force model on every answer, every victim and every
// position — arrivals, deliveries, purge passes and t7 flushes of held-back
// gaps, across view changes.
// ---------------------------------------------------------------------------

/// The queue as Figure 1 defines it: a plain vector (null = a view
/// notification) where every operation is a full scan.
class ModelQueue {
 public:
  explicit ModelQueue(obs::RelationPtr relation)
      : relation_(std::move(relation)) {}

  void push_data(const DataMessagePtr& m) { entries_.push_back(m); }
  void push_view() { entries_.push_back(nullptr); }

  /// t7's insert: before the first queued entry of m's sender with a
  /// higher seq, else at the tail.  Returns the position.
  std::size_t push_data_flush(const DataMessagePtr& m) {
    const auto pos = std::find_if(
        entries_.begin(), entries_.end(), [&](const DataMessagePtr& e) {
          return e != nullptr && e->sender() == m->sender() &&
                 e->seq() > m->seq();
        });
    return static_cast<std::size_t>(entries_.insert(pos, m) -
                                    entries_.begin());
  }

  /// The head, or null for a view notification.
  DataMessagePtr pop_front() {
    const DataMessagePtr head = entries_.front();
    entries_.erase(entries_.begin());
    return head;
  }

  /// Flush rule (c) as it stands: some queued entry of m's view covers m.
  /// A cover already delivered does not count (the hole ROADMAP item 1
  /// closes; its fix changes this rule here too).
  [[nodiscard]] bool covered_by_accepted(const DataMessage& m) {
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const DataMessagePtr& e) {
                         return e != nullptr && covers(*e, m);
                       });
  }

  [[nodiscard]] std::size_t count_victims(const DataMessage& by) {
    return static_cast<std::size_t>(
        std::count_if(entries_.begin(), entries_.end(),
                      [&](const DataMessagePtr& e) {
                        return e != nullptr && covers(by, *e);
                      }));
  }

  std::size_t purge_with(const DataMessagePtr& by) {
    return static_cast<std::size_t>(
        std::erase_if(entries_, [&](const DataMessagePtr& e) {
          if (e == nullptr || !covers(*by, *e)) return false;
          victims.emplace_back(e->id(), by->id());
          return true;
        }));
  }

  /// purge(S): walk the queue, removing each entry covered by another
  /// entry still in it.
  std::size_t purge_full() {
    std::size_t removed = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
      const DataMessagePtr victim = *it;
      const auto coverer =
          victim == nullptr
              ? entries_.end()
              : std::find_if(entries_.begin(), entries_.end(),
                             [&](const DataMessagePtr& e) {
                               return e != nullptr && e != victim &&
                                      covers(*e, *victim);
                             });
      if (coverer == entries_.end()) {
        ++it;
        continue;
      }
      victims.emplace_back(victim->id(), (*coverer)->id());
      it = entries_.erase(it);
      ++removed;
    }
    return removed;
  }

  /// Queued data of view v, in queue order.
  [[nodiscard]] std::vector<MsgId> ids_of_view(ViewId v) const {
    std::vector<MsgId> ids;
    for (const auto& e : entries_) {
      if (e != nullptr && e->view() == v) ids.push_back(e->id());
    }
    return ids;
  }

  [[nodiscard]] std::size_t length() const { return entries_.size(); }
  [[nodiscard]] std::size_t data_count() const {
    return entries_.size() -
           static_cast<std::size_t>(
               std::count(entries_.begin(), entries_.end(), nullptr));
  }
  [[nodiscard]] std::uint64_t scan_steps() const { return scan_steps_; }

  std::vector<std::pair<MsgId, MsgId>> victims;  // (victim, by)

 private:
  /// Figure 1's same-view purge: only messages of one view relate.
  bool covers(const DataMessage& newer, const DataMessage& older) {
    ++scan_steps_;
    return newer.view() == older.view() &&
           relation_->covers(newer.ref(), older.ref());
  }

  obs::RelationPtr relation_;
  std::vector<DataMessagePtr> entries_;
  std::uint64_t scan_steps_ = 0;
};

/// How often a trace reached the flush states worth checking.
struct FlushCoverage {
  std::size_t covered = 0;       // a queued cover stopped the flush
  std::size_t mid_inserts = 0;   // the repair landed before a queued seq
  std::size_t tail_inserts = 0;  // nothing later queued: retro-delivery
};

void expect_matches_model(const DeliveryQueue& queue, const ModelQueue& model,
                          const std::vector<MsgId>& delivered,
                          const PurgeRecorder& log, ViewId cv, int step) {
  ASSERT_EQ(queue.length(), model.length()) << "step " << step;
  ASSERT_EQ(queue.data_count(), model.data_count()) << "step " << step;
  // purge_full visits senders in index order while the model walks the
  // queue, so the victim *order* may differ; the (victim, by) *sets* must
  // not.
  auto a = log.victims;
  auto b = model.victims;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  ASSERT_EQ(a, b) << "victims differ at step " << step;
  // append_local_pred lists the retained delivered history, then the
  // queued entries of the given view.
  for (ViewId v{0}; v <= cv; v = v.next()) {
    std::vector<DataMessagePtr> pred;
    queue.append_local_pred(v, pred);
    std::vector<MsgId> ids;
    for (const auto& m : pred) ids.push_back(m->id());
    ASSERT_GE(ids.size(), delivered.size());
    ASSERT_TRUE(std::equal(delivered.begin(), delivered.end(), ids.begin()))
        << "delivered history differs at step " << step;
    ids.erase(ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(
                                             delivered.size()));
    ASSERT_EQ(ids, model.ids_of_view(v))
        << "order of view " << v << " differs at step " << step;
  }
}

void run_model_trace(const obs::RelationPtr& relation,
                     obs::AnnotationKind kind, std::uint64_t seed,
                     FlushCoverage& coverage) {
  sim::Rng rng(seed);
  const std::uint32_t senders = 4;
  const std::size_t k = 8;
  const std::vector<net::ProcessId> members{
      net::ProcessId(0), net::ProcessId(1), net::ProcessId(2),
      net::ProcessId(3)};
  std::vector<obs::BatchComposer> composers;
  std::vector<std::uint64_t> next_seq(senders, 1);
  for (std::uint32_t s = 0; s < senders; ++s) {
    composers.emplace_back(obs::BatchComposer::Config{kind, k, 0});
  }
  PurgeRecorder log;
  DeliveryQueue queue(relation, net::ProcessId(0), &log);
  ModelQueue model(relation);
  ViewId cv{0};
  std::vector<DataMessagePtr> gaps;  // arrivals held back for the flush
  std::vector<MsgId> delivered;      // this view's deliveries, in order

  for (int step = 0; step < 600; ++step) {
    const auto roll = rng.below(100);
    if (roll < 50) {
      // Arrival: a fresh message from a random sender updating one of a few
      // hot items.  Some are held back as gaps (purged at the sender, say)
      // for the next flush; the rest land through the t3 sequence.
      const auto s = static_cast<std::uint32_t>(rng.below(senders));
      const std::uint64_t seq = next_seq[s]++;
      const std::uint64_t item = rng.below(5);
      obs::Annotation ann = kind == obs::AnnotationKind::item_tag
                                ? obs::Annotation::item(item)
                                : composers[s].single(item, seq);
      const auto m = msg(s, seq, std::move(ann), cv);
      if (rng.below(100) < 30) {
        gaps.push_back(m);
        continue;
      }
      ASSERT_EQ(queue.covered_by_accepted(*m, cv),
                model.covered_by_accepted(*m))
          << "covered mismatch at step " << step;
      ASSERT_EQ(queue.count_victims(*m, cv), model.count_victims(*m))
          << "victim count mismatch at step " << step;
      ASSERT_EQ(queue.purge_with(m, cv), model.purge_with(m))
          << "purge mismatch at step " << step;
      queue.push_data(m);
      model.push_data(m);
    } else if (roll < 85) {
      // Delivery; current-view data joins the retained history, as at
      // the node, where a later flush filter could see it.
      if (model.length() == 0) {
        ASSERT_FALSE(queue.pop_front().has_value());
        continue;
      }
      const auto a = queue.pop_front();
      const auto b = model.pop_front();
      ASSERT_TRUE(a.has_value());
      ASSERT_EQ(a->data == nullptr, b == nullptr) << "head kind " << step;
      if (b != nullptr) {
        ASSERT_EQ(a->data->id(), b->id()) << "head mismatch " << step;
        if (b->view() == cv) {
          queue.record_delivered(a->data);
          delivered.push_back(b->id());
        }
      }
    } else if (roll < 90) {
      // Full purge pass on its own.
      ASSERT_EQ(queue.purge_full(cv), model.purge_full())
          << "purge_full mismatch " << step;
    } else {
      // t7: flush the held-back gaps in (sender, seq) order, skipping
      // those a queued message covers, then the purge pass, then maybe
      // the view notification.
      std::sort(gaps.begin(), gaps.end(),
                [](const DataMessagePtr& x, const DataMessagePtr& y) {
                  return x->id() < y->id();
                });
      for (const auto& m : gaps) {
        const bool covered = model.covered_by_accepted(*m);
        ASSERT_EQ(queue.covered_by_accepted(*m, cv), covered)
            << "flush filter mismatch at step " << step;
        if (covered) {
          ++coverage.covered;
          continue;
        }
        queue.push_data_flush(m);
        if (model.push_data_flush(m) + 1 < model.length()) {
          ++coverage.mid_inserts;
        } else {
          ++coverage.tail_inserts;
        }
      }
      gaps.clear();
      ASSERT_EQ(queue.purge_full(cv), model.purge_full())
          << "post-flush purge_full mismatch " << step;
      if (rng.below(2) == 0) {
        cv = cv.next();
        queue.push_view(View(cv, members));
        queue.reset_view();
        model.push_view();
        delivered.clear();
      }
    }
    expect_matches_model(queue, model, delivered, log, cv, step);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Drain: the whole queue, view notifications included, in model order.
  while (model.length() > 0) {
    const auto a = queue.pop_front();
    const auto b = model.pop_front();
    ASSERT_TRUE(a.has_value());
    ASSERT_EQ(a->data == nullptr, b == nullptr);
    if (b != nullptr) {
      ASSERT_EQ(a->data->id(), b->id());
    }
  }
  EXPECT_FALSE(queue.pop_front().has_value());
  // The index never does more scan work than the full scans.
  EXPECT_LE(queue.stats().purge_scan_steps, model.scan_steps());
}

void run_model_traces(const obs::RelationPtr& relation,
                      obs::AnnotationKind kind, std::uint64_t first_seed) {
  FlushCoverage coverage;
  for (std::uint64_t seed = first_seed; seed < first_seed + 5; ++seed) {
    run_model_trace(relation, kind, seed, coverage);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The traces reached every flush outcome.
  EXPECT_GT(coverage.covered, 0u);
  EXPECT_GT(coverage.mid_inserts, 0u);
  EXPECT_GT(coverage.tail_inserts, 0u);
}

TEST(DeliveryQueueModel, ItemTagTraces) {
  run_model_traces(std::make_shared<obs::ItemTagRelation>(),
                   obs::AnnotationKind::item_tag, 1);
}

TEST(DeliveryQueueModel, KEnumTraces) {
  run_model_traces(std::make_shared<obs::KEnumRelation>(),
                   obs::AnnotationKind::k_enum, 10);
}

TEST(DeliveryQueueModel, EnumerationTraces) {
  run_model_traces(std::make_shared<obs::EnumerationRelation>(),
                   obs::AnnotationKind::enumeration, 20);
}

}  // namespace
}  // namespace svs::core
