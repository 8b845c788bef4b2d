// The to-deliver queue and delivered history of one SVS node, with indexed
// semantic purging.
//
// Owns the Figure-1 buffers the protocol purges: the ordered to-deliver
// queue (data entries interleaved with VIEW notifications), the delivered
// history of the current view (retained for a possible t7 flush until
// stability gossip collects it), and the accepted-id set spanning both.
//
// Indexed purging (DESIGN.md §2): obsolescence is per-sender (see
// obs/relation.hpp), so a covering message and its victims share a sender.
// The queue maintains a per-sender seq -> entry index and `purge_with`,
// `count_victims` and `covered_by_accepted` visit only that sender's
// entries — further narrowed to [relation.coverage_floor(by), by.seq) —
// instead of scanning the whole queue.  delivery_queue_test holds every
// operation to a brute-force model that scans the whole queue.
//
// Index representation (DESIGN.md §8): structure-of-arrays.  Each sender's
// queued entries live in parallel columns sorted by seq — the seq keys
// packed in one contiguous array (what a window scan actually compares),
// with views, annotation pointers and queue-entry handles alongside.  The
// FIFO discipline makes inserts appends and pops head-advances (amortized
// O(1) via a head offset); only the rare t7 flush inserts mid-column.  A
// purge window scan is a linear walk over packed integers instead of a
// pointer chase through map nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/message.hpp"
#include "core/observer.hpp"
#include "core/types.hpp"
#include "obs/relation.hpp"
#include "util/pool.hpp"

namespace svs::core {

class DeliveryQueue {
 public:
  /// One slot of the to-deliver queue: either data or a view notification
  /// ([VIEW, v] in Figure 1; exclusion is a view the node is not part of).
  struct Entry {
    DataMessagePtr data;       // null for view notifications
    std::optional<View> view;  // engaged for view notifications
  };

  struct Stats {
    std::uint64_t purged = 0;           // victims removed from the queue
    std::uint64_t purge_scan_steps = 0; // covers() candidates examined
    std::uint64_t cover_scan_steps = 0; // candidates examined by t3's test
  };

  DeliveryQueue(obs::RelationPtr relation, net::ProcessId self,
                NodeObserver* observer);

  DeliveryQueue(const DeliveryQueue&) = delete;
  DeliveryQueue& operator=(const DeliveryQueue&) = delete;

  // -- queue --------------------------------------------------------------

  void push_data(const DataMessagePtr& m);

  /// Flush-in variant of push_data (t7): inserts `m` before the first
  /// queued entry of the same sender with a higher seq, so a view-change
  /// repair of a sender-purged gap keeps per-sender FIFO whenever the later
  /// seqs are still undelivered; appends when none is queued (the repair is
  /// then a retro-delivery, which the spec checker exempts from FIFO (i) —
  /// DESIGN.md §7).
  void push_data_flush(const DataMessagePtr& m);
  void push_view(const View& v);

  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t length() const { return entries_.size(); }
  [[nodiscard]] std::size_t data_count() const { return data_count_; }

  /// Pops the queue head (t1).  Data entries leave the per-sender index but
  /// stay accepted — delivery moves a message from the queue to the
  /// delivered history, not out of the accepted set.
  std::optional<Entry> pop_front();

  // -- accepted set (queue + delivered history) ---------------------------

  [[nodiscard]] bool accepted(const MsgId& id) const {
    return accepted_ids_.contains(id);
  }

  /// Appends a just-delivered current-view message to the retained history.
  void record_delivered(const DataMessagePtr& m) {
    delivered_view_.push_back(m);
  }

  [[nodiscard]] std::size_t delivered_retained() const {
    return delivered_view_.size();
  }

  /// GC of the stable delivered prefix: removes (and un-accepts) delivered
  /// messages with seq <= floor_of(sender).  Returns the number collected.
  ///
  /// This single rule is sound for *every* relation because the floors are
  /// the StabilityLedger's covered frontiers, not raw reception marks: a
  /// member's frontier passes a seq only when that member received the
  /// message or a live cover resolved through the sender-announced purge
  /// debts (DESIGN.md §3/§7).  Collection therefore never strands a §3.2
  /// obligation, and needs no retained-cover insurance or per-relation GC
  /// policy.
  std::size_t collect_delivered(
      const std::function<std::uint64_t(net::ProcessId)>& floor_of);

  // -- semantic purging ---------------------------------------------------

  /// True iff some queued message of view `cv` covers m — flush rule (c)
  /// of t7.  The delivered history is not scanned; see the definition for
  /// what t7 loses by that.
  [[nodiscard]] bool covered_by_accepted(const DataMessage& m, ViewId cv);

  /// Number of queued entries purge_with(by) would remove, without removing
  /// them (the §5.3 capacity pre-checks of t2/t3).
  [[nodiscard]] std::size_t count_victims(const DataMessage& by, ViewId cv);

  /// purge(to-deliver) restricted to victims covered by `by` (view cv).
  std::size_t purge_with(const DataMessagePtr& by, ViewId cv);

  /// Full purge pass: removes every data entry covered by another entry of
  /// the same view still queued (used after the t7 flush).
  std::size_t purge_full(ViewId cv);

  // -- view change support ------------------------------------------------

  /// Appends {[DATA, v, d] ∈ (delivered ∪ to-deliver) : v = cv} to `out`,
  /// in delivery order (t5's local predicate).
  void append_local_pred(ViewId cv, std::vector<DataMessagePtr>& out) const;

  /// Install-time reset: clears the delivered history and the accepted set.
  /// Entries still queued (remnants of the superseded view, including
  /// just-flushed messages) stay to be consumed and stay indexed — purging
  /// relates messages by view equality, so remnants drop out of every scan
  /// that targets the new view on their own.
  void reset_view();

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const obs::Relation& relation() const { return *relation_; }

 private:
  // List nodes and accepted-id nodes recycle through the thread's pool:
  // every multicast/arrival allocates one of each, every delivery or purge
  // frees them, so the steady state never touches the system allocator.
  using List = std::list<Entry, util::PoolAllocator<Entry>>;

  /// One sender's queued entries as parallel columns sorted by seq
  /// (structure-of-arrays, DESIGN.md §8).  The live range is [head, size):
  /// popping the sender's lowest seq advances `head` instead of shifting,
  /// and the dead prefix is compacted once it dominates.  Invariants:
  /// seqs is strictly ascending over the live range; the four columns are
  /// index-parallel; slots[i]->data is the message whose seq/view/
  /// annotation the other columns mirror (annotation pointers are stable:
  /// they point into shared-ptr-owned immutable messages).
  struct SenderColumn {
    std::vector<std::uint64_t> seqs;
    std::vector<ViewId> views;
    std::vector<const obs::Annotation*> notes;
    std::vector<List::iterator> slots;
    std::size_t head = 0;

    [[nodiscard]] std::size_t size() const { return seqs.size(); }
    [[nodiscard]] bool empty() const { return head == seqs.size(); }
    /// First live position with seqs[pos] >= seq.
    [[nodiscard]] std::size_t lower_bound(std::uint64_t seq) const;
    /// First live position with seqs[pos] > seq.
    [[nodiscard]] std::size_t upper_bound(std::uint64_t seq) const;
    void insert_at(std::size_t pos, const DataMessagePtr& m,
                   List::iterator it);
    void erase_at(std::size_t pos);
    /// Marks `pos` removed without shifting (a purge pass punches out its
    /// victims mid-scan, then sweeps once).  Punched = null annotation.
    void punch(std::size_t pos) { notes[pos] = nullptr; }
    /// Drops every punched position, then compacts the dead prefix if it
    /// dominates.
    void sweep_punched();
  };

  void index_insert(const DataMessagePtr& m, List::iterator it);
  void index_erase(const DataMessage& m);
  /// Removes a queued data entry: observer hook, index, accepted set.
  List::iterator erase_entry(List::iterator it, const DataMessagePtr& by);

  obs::RelationPtr relation_;
  net::ProcessId self_;
  NodeObserver* observer_;  // optional, not owned

  List entries_;
  std::size_t data_count_ = 0;  // data entries in entries_
  std::unordered_map<net::ProcessId, SenderColumn> by_sender_;
  std::vector<DataMessagePtr> delivered_view_;  // delivered with view == cv
  std::unordered_set<MsgId, std::hash<MsgId>, std::equal_to<MsgId>,
                     util::PoolAllocator<MsgId>>
      accepted_ids_;  // ids queued or delivered
  Stats stats_;
};

}  // namespace svs::core
