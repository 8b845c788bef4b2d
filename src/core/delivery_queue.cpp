#include "core/delivery_queue.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "util/contracts.hpp"

namespace svs::core {

DeliveryQueue::DeliveryQueue(obs::RelationPtr relation, net::ProcessId self,
                             NodeObserver* observer)
    : relation_(std::move(relation)), self_(self), observer_(observer) {
  SVS_REQUIRE(relation_ != nullptr, "a relation oracle is required");
}

// ---------------------------------------------------------------------------
// sender columns (SoA index)
// ---------------------------------------------------------------------------

std::size_t DeliveryQueue::SenderColumn::lower_bound(std::uint64_t seq) const {
  const auto begin = seqs.begin() + static_cast<std::ptrdiff_t>(head);
  return static_cast<std::size_t>(
      std::lower_bound(begin, seqs.end(), seq) - seqs.begin());
}

std::size_t DeliveryQueue::SenderColumn::upper_bound(std::uint64_t seq) const {
  const auto begin = seqs.begin() + static_cast<std::ptrdiff_t>(head);
  return static_cast<std::size_t>(
      std::upper_bound(begin, seqs.end(), seq) - seqs.begin());
}

void DeliveryQueue::SenderColumn::insert_at(std::size_t pos,
                                            const DataMessagePtr& m,
                                            List::iterator it) {
  const auto at = static_cast<std::ptrdiff_t>(pos);
  seqs.insert(seqs.begin() + at, m->seq());
  views.insert(views.begin() + at, m->view());
  notes.insert(notes.begin() + at, &m->annotation());
  slots.insert(slots.begin() + at, it);
}

void DeliveryQueue::SenderColumn::erase_at(std::size_t pos) {
  if (pos == head) {
    // The FIFO pop: advance the head offset; reclaim the dead prefix once
    // it dominates the column (amortized O(1)).
    ++head;
    if (head > 32 && head * 2 > seqs.size()) {
      const auto at = static_cast<std::ptrdiff_t>(head);
      seqs.erase(seqs.begin(), seqs.begin() + at);
      views.erase(views.begin(), views.begin() + at);
      notes.erase(notes.begin(), notes.begin() + at);
      slots.erase(slots.begin(), slots.begin() + at);
      head = 0;
    }
    return;
  }
  const auto at = static_cast<std::ptrdiff_t>(pos);
  seqs.erase(seqs.begin() + at);
  views.erase(views.begin() + at);
  notes.erase(notes.begin() + at);
  slots.erase(slots.begin() + at);
}

void DeliveryQueue::SenderColumn::sweep_punched() {
  std::size_t w = head;
  for (std::size_t r = head; r < seqs.size(); ++r) {
    if (notes[r] == nullptr) continue;
    if (w != r) {
      seqs[w] = seqs[r];
      views[w] = views[r];
      notes[w] = notes[r];
      slots[w] = slots[r];
    }
    ++w;
  }
  seqs.resize(w);
  views.resize(w);
  notes.resize(w);
  slots.resize(w);
}

// ---------------------------------------------------------------------------
// queue
// ---------------------------------------------------------------------------

void DeliveryQueue::push_data(const DataMessagePtr& m) {
  entries_.push_back(Entry{m, std::nullopt});
  ++data_count_;
  accepted_ids_.insert(m->id());
  index_insert(m, std::prev(entries_.end()));
}

void DeliveryQueue::push_data_flush(const DataMessagePtr& m) {
  auto pos = entries_.end();
  const auto sender = by_sender_.find(m->sender());
  if (sender != by_sender_.end()) {
    const std::size_t above = sender->second.upper_bound(m->seq());
    if (above < sender->second.size()) pos = sender->second.slots[above];
  }
  const auto it = entries_.insert(pos, Entry{m, std::nullopt});
  ++data_count_;
  accepted_ids_.insert(m->id());
  index_insert(m, it);
}

void DeliveryQueue::push_view(const View& v) {
  entries_.push_back(Entry{nullptr, v});
}

std::optional<DeliveryQueue::Entry> DeliveryQueue::pop_front() {
  if (entries_.empty()) return std::nullopt;
  Entry entry = std::move(entries_.front());
  if (entry.data != nullptr) {
    SVS_ASSERT(data_count_ > 0, "data count out of sync with queue");
    --data_count_;
    index_erase(*entry.data);
  }
  entries_.pop_front();
  return entry;
}

void DeliveryQueue::index_insert(const DataMessagePtr& m, List::iterator it) {
  SenderColumn& column = by_sender_[m->sender()];
  // FIFO reception makes the common case an append (the freshest seq of
  // the sender); only the t7 flush repairs a gap mid-column.
  if (column.empty() || column.seqs.back() < m->seq()) {
    column.insert_at(column.size(), m, it);
    return;
  }
  const std::size_t pos = column.lower_bound(m->seq());
  SVS_ASSERT(pos == column.size() || column.seqs[pos] != m->seq(),
             "duplicate (sender, seq) in the delivery queue");
  column.insert_at(pos, m, it);
}

void DeliveryQueue::index_erase(const DataMessage& m) {
  const auto sender = by_sender_.find(m.sender());
  SVS_ASSERT(sender != by_sender_.end(), "index missing sender");
  SenderColumn& column = sender->second;
  const std::size_t pos = column.lower_bound(m.seq());
  SVS_ASSERT(pos < column.size() && column.seqs[pos] == m.seq(),
             "index missing entry");
  column.erase_at(pos);
  if (column.empty()) by_sender_.erase(sender);
}

DeliveryQueue::List::iterator DeliveryQueue::erase_entry(
    List::iterator it, const DataMessagePtr& by) {
  if (observer_ != nullptr) observer_->on_purge(self_, it->data, by);
  accepted_ids_.erase(it->data->id());
  --data_count_;
  ++stats_.purged;
  return entries_.erase(it);
}

// ---------------------------------------------------------------------------
// accepted set
// ---------------------------------------------------------------------------

std::size_t DeliveryQueue::collect_delivered(
    const std::function<std::uint64_t(net::ProcessId)>& floor_of) {
  std::map<net::ProcessId, std::uint64_t> floors;
  const auto stable = [&](const DataMessagePtr& m) {
    const auto [it, inserted] = floors.emplace(m->sender(), 0);
    if (inserted) it->second = floor_of(m->sender());
    return m->seq() <= it->second;
  };
  std::size_t collected = 0;
  std::erase_if(delivered_view_, [&](const DataMessagePtr& m) {
    if (!stable(m)) return false;
    accepted_ids_.erase(m->id());
    ++collected;
    return true;
  });
  return collected;
}

// ---------------------------------------------------------------------------
// semantic purging
// ---------------------------------------------------------------------------

bool DeliveryQueue::covered_by_accepted(const DataMessage& m, ViewId cv) {
  SVS_ASSERT(m.view() == cv, "t3/t7 only test messages of the current view");
  // A cover shares m's sender and carries a higher seq (Relation::covers),
  // and only queued entries are scanned: a linear walk over the sender's
  // packed columns above m's seq.
  //
  // At t3 that loses nothing.  FIFO channels deliver a sender's seqs in
  // order, so nothing delivered here from m's sender lies above a fresh
  // arrival.  At t7 it does: a flushed-in m can be a gap whose cover was
  // already delivered here, with the cover's purge debt not yet gossiped,
  // and that cover does not stop the flush — m is delivered after it.
  // Repro: `svs_explore --seed=1089 --relation=kenum --faults=0x0
  // --msgs=2`, which fails only once the checker's FIFO exemption for
  // flush-ins is narrowed (ROADMAP item 1).
  const auto sender = by_sender_.find(m.sender());
  if (sender == by_sender_.end()) return false;
  const SenderColumn& column = sender->second;
  const obs::MessageRef victim = m.ref();
  for (std::size_t i = column.upper_bound(m.seq()); i < column.size(); ++i) {
    ++stats_.cover_scan_steps;
    if (column.views[i] != m.view()) continue;
    const obs::MessageRef candidate{m.sender(), column.seqs[i],
                                    column.notes[i]};
    if (relation_->covers(candidate, victim)) return true;
  }
  return false;
}

std::size_t DeliveryQueue::count_victims(const DataMessage& by, ViewId cv) {
  SVS_ASSERT(by.view() == cv, "purging is restricted to the current view");
  std::size_t victims = 0;
  const auto sender = by_sender_.find(by.sender());
  if (sender == by_sender_.end()) return 0;
  const SenderColumn& column = sender->second;
  const obs::MessageRef coverer = by.ref();
  const std::uint64_t floor = relation_->coverage_floor(coverer);
  for (std::size_t i = column.lower_bound(floor);
       i < column.size() && column.seqs[i] < by.seq(); ++i) {
    ++stats_.purge_scan_steps;
    if (column.views[i] != by.view()) continue;
    const obs::MessageRef candidate{by.sender(), column.seqs[i],
                                    column.notes[i]};
    if (relation_->covers(coverer, candidate)) ++victims;
  }
  return victims;
}

std::size_t DeliveryQueue::purge_with(const DataMessagePtr& by, ViewId cv) {
  SVS_ASSERT(by->view() == cv, "purging is restricted to the current view");
  std::size_t removed = 0;
  const auto sender = by_sender_.find(by->sender());
  if (sender == by_sender_.end()) return 0;
  SenderColumn& column = sender->second;
  const obs::MessageRef coverer = by->ref();
  const std::uint64_t floor = relation_->coverage_floor(coverer);
  for (std::size_t i = column.lower_bound(floor);
       i < column.size() && column.seqs[i] < by->seq(); ++i) {
    ++stats_.purge_scan_steps;
    if (column.views[i] != by->view()) continue;
    const obs::MessageRef candidate{by->sender(), column.seqs[i],
                                    column.notes[i]};
    if (!relation_->covers(coverer, candidate)) continue;
    erase_entry(column.slots[i], by);
    column.punch(i);
    ++removed;
  }
  if (removed > 0) {
    column.sweep_punched();
    if (column.empty()) by_sender_.erase(sender);
  }
  return removed;
}

std::size_t DeliveryQueue::purge_full(ViewId cv) {
  (void)cv;  // purge_full relates entries pairwise by their own views
  std::size_t removed = 0;
  // purge(S): remove every data entry covered by another entry of the same
  // view still in S.  A coverer shares the victim's sender and has a higher
  // seq, so each sender's entries are checked only against their own
  // successors — quadratic only within one sender's run.
  for (auto sender = by_sender_.begin(); sender != by_sender_.end();) {
    SenderColumn& column = sender->second;
    std::size_t punched = 0;
    for (std::size_t i = column.head; i < column.size(); ++i) {
      const obs::MessageRef victim{sender->first, column.seqs[i],
                                   column.notes[i]};
      for (std::size_t j = i + 1; j < column.size(); ++j) {
        ++stats_.purge_scan_steps;
        if (column.views[j] != column.views[i]) continue;
        const obs::MessageRef candidate{sender->first, column.seqs[j],
                                        column.notes[j]};
        if (!relation_->covers(candidate, victim)) continue;
        erase_entry(column.slots[i], column.slots[j]->data);
        column.punch(i);
        ++punched;
        ++removed;
        break;
      }
    }
    if (punched > 0) column.sweep_punched();
    sender = column.empty() ? by_sender_.erase(sender) : std::next(sender);
  }
  return removed;
}

// ---------------------------------------------------------------------------
// view change support
// ---------------------------------------------------------------------------

void DeliveryQueue::append_local_pred(ViewId cv,
                                      std::vector<DataMessagePtr>& out) const {
  out.insert(out.end(), delivered_view_.begin(), delivered_view_.end());
  for (const auto& e : entries_) {
    if (e.data != nullptr && e.data->view() == cv) out.push_back(e.data);
  }
}

void DeliveryQueue::reset_view() {
  delivered_view_.clear();
  accepted_ids_.clear();
}

}  // namespace svs::core
