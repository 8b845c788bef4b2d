#include "net/network.hpp"

#include <algorithm>
#include <utility>

#include "net/fault_injector.hpp"

namespace svs::net {

Network::Network(sim::Simulator& simulator, Config config, Hold hold)
    : sim_(simulator), config_(config), hold_(hold) {
  SVS_REQUIRE(config_.delay >= sim::Duration::zero(), "delay must be >= 0");
}

void Network::attach(ProcessId id, Endpoint& endpoint) {
  SVS_REQUIRE(link_refs_held_ == 0,
              "attach re-strides the link table and must not run inside a "
              "delivery, purge or drain callback; defer it to its own event");
  const auto raw = static_cast<std::size_t>(id.value());
  if (raw >= dense_.size()) dense_.resize(raw + 1, -1);
  SVS_REQUIRE(dense_[raw] < 0, "endpoint already attached for this process");

  const std::uint32_t n_old = size();
  dense_[raw] = static_cast<std::int32_t>(n_old);
  endpoints_.push_back(&endpoint);
  pid_of_.push_back(id);
  crash_.emplace_back();
  pause_wakeup_.emplace_back();
  drain_observers_.emplace_back();
  // One empty row; its slots (and the short rows of earlier senders)
  // materialize on first use, so attach is O(1) at any group size.
  links_.emplace_back();
}

void Network::enqueue(std::uint32_t fi, std::uint32_t ti, Link& l,
                      MessagePtr message, Lane lane,
                      std::size_t wire_bytes) {
  // Fault injection first: the hook may add delay (jitter, partitions held
  // until heal), duplicate the message, or — out-of-model — drop it before
  // it ever enters the link queue.
  std::uint32_t copies = 1;
  sim::Duration injected = sim::Duration::zero();
  if (injector_ != nullptr) {
    const FaultInjector::SendFault fault =
        injector_->on_send(pid_of_[fi], pid_of_[ti], lane, *message,
                           sim_.now());
    if (fault.copies == 0) {
      ++stats_.injected_drops;
      return;  // never enqueued: counts neither as sent nor as bytes
    }
    copies = fault.copies;
    stats_.injected_duplicates += copies - 1;
    stats_.injected_losses += fault.losses;
    injected = fault.extra_delay;
  }

  const int li = lane_index(lane);
  const std::uint64_t key = message->order_key();
  const bool waits = hold_ == Hold::every || message->held();
  // Countdown so the last copy moves the pointer: the single-copy case —
  // the entire hot path — never pays a refcount bump here.
  for (std::uint32_t c = copies; c-- > 0;) {
    sim::Duration delay = l.slowdown + injected;
    if (waits) delay += config_.delay;
    // FIFO per lane: acceptance attempts never reorder, so a message that
    // does not wait still queues behind a held one.
    sim::TimePoint ready = sim_.now() + delay;
    if (ready < l.last_ready[li]) ready = l.last_ready[li];
    l.last_ready[li] = ready;
    // Duplicated copies are real wire traffic: each counts sent bytes.
    l.queue[li].push_back(QueuedMessage{
        c == 0 ? std::move(message) : MessagePtr(message), ready, key});
    ++stats_.sent;
    stats_.bytes_sent += wire_bytes;
  }
  schedule_attempt(fi, ti, l, lane);
}

void Network::send(ProcessId from, ProcessId to, MessagePtr message,
                   Lane lane) {
  SVS_REQUIRE(message != nullptr, "cannot send a null message");
  const std::uint32_t fi = index_of(from);
  const std::uint32_t ti = index_of(to);
  if (crash_[fi].crashed) return;  // crash-stop: no sends after crash
  const std::size_t wire_bytes = message->wire_size();
  enqueue(fi, ti, link_at(fi, ti), std::move(message), lane, wire_bytes);
}

void Network::multicast(ProcessId from,
                        std::span<const ProcessId> destinations,
                        const MessagePtr& message, Lane lane, bool skip_self) {
  SVS_REQUIRE(message != nullptr, "cannot send a null message");
  const std::uint32_t fi = index_of(from);
  if (crash_[fi].crashed) return;
  // One encode-size computation for the whole fan-out: every destination
  // receives the same bytes.
  const std::size_t wire_bytes = message->wire_size();
  for (const ProcessId to : destinations) {
    if (skip_self && to == from) continue;
    const std::uint32_t ti = index_of(to);
    enqueue(fi, ti, link_at(fi, ti), MessagePtr(message), lane, wire_bytes);
  }
}

void Network::schedule_attempt(std::uint32_t fi, std::uint32_t ti, Link& l,
                               Lane lane) {
  const int li = lane_index(lane);
  if (l.pending[li].valid()) return;          // attempt already scheduled
  if (l.in_attempt[li]) return;  // the running attempt reschedules at exit
  if (lane == Lane::data && l.stalled) return;  // waiting for resume()
  if (l.queue[li].empty()) return;
  const sim::TimePoint when =
      std::max(sim_.now(), l.queue[li].front().ready);
  l.pending[li] = sim_.schedule_at(
      when, [this, fi, ti, lane] { attempt(fi, ti, lane); });
}

void Network::attempt(std::uint32_t fi, std::uint32_t ti, Lane lane) {
  const LinkRefScope scope(*this);
  Link& l = link_at(fi, ti);  // an attempt implies the link exists
  const int li = lane_index(lane);
  l.pending[li] = sim::EventId{};
  auto& q = l.queue[li];
  if (q.empty()) return;  // everything was purged meanwhile

  SVS_ASSERT(q.front().ready <= sim_.now(),
             "attempt ran before message was ready");

  // Injected receiver pause (slow-consumer throttling, fault_injector.hpp):
  // the receiver refuses data for the window, so the link stalls exactly as
  // it would on a full delivery queue — backpressure, not loss.  One wake-up
  // per receiver re-attempts at the window's end.  Control-lane traffic is
  // never paused (§5.3 reserves buffer space for control information).
  if (lane == Lane::data && injector_ != nullptr) {
    const auto until =
        injector_->receive_paused_until(pid_of_[ti], sim_.now());
    if (until.has_value()) {
      l.stalled = true;
      ++stats_.injected_pauses;
      arm_pause_wakeup(ti, *until);
      return;
    }
  }

  // Per-link delivery timer: drain every message already due in this one
  // event instead of scheduling one event per message.  A burst of n
  // same-ready messages (the common case on heavy traces) costs one heap
  // operation instead of n.  The budget caps the drain at the occupancy on
  // entry so that zero-delay messages enqueued by the handlers below are
  // delivered by a fresh event.  Note the burst is offered back-to-back:
  // other same-timestamp events (a consumer tick, a deferred deliverable
  // callback) now run after the whole drain rather than between deliveries,
  // so a capacity-bounded receiver may refuse a message it would previously
  // have accepted post-consume — the refusal stalls the link and resolves
  // through the normal resume() path, so only timing shifts, not outcomes.
  std::size_t budget = q.size();
  l.in_attempt[li] = true;
  const ProcessId from = pid_of_[fi];
  Endpoint* const endpoint = endpoints_[ti];
  while (budget-- > 0 && !q.empty() && q.front().ready <= sim_.now()) {
    if (crash_[ti].crashed) {
      if (lane == Lane::control) {
        // Nobody will ever read it; discard so long runs do not accumulate.
        q.pop_front();
        ++stats_.dropped_to_crashed;
        continue;
      }
      // A reliable protocol keeps unacknowledged data buffered; the space
      // is only reclaimed when a view change excludes the crashed member
      // (drop_outgoing).  Model that as a permanent stall.
      l.stalled = true;
      ++stats_.refusals;
      break;
    }

    // Pop before delivering: the handler may send on this very link (e.g. a
    // consensus participant answering itself) or purge outgoing buffers; the
    // in-flight message must not be visible to either.  in_attempt
    // suppresses re-entrant scheduling; the epilogue below re-arms the link.
    QueuedMessage head = std::move(q.front());
    q.pop_front();
    const bool accepted = endpoint->on_message(from, head.message, lane);

    if (lane == Lane::control) {
      SVS_ASSERT(accepted, "control-lane messages must always be accepted");
    }
    if (!accepted) {
      q.push_front(std::move(head));
      l.stalled = true;
      ++stats_.refusals;
      break;
    }
    ++stats_.delivered;
    stats_.bytes_delivered += head.message->wire_size();
    if (lane == Lane::data) notify_drain(fi);
  }
  l.in_attempt[li] = false;
  schedule_attempt(fi, ti, l, lane);
}

void Network::arm_pause_wakeup(std::uint32_t ti, sim::TimePoint until) {
  if (pause_wakeup_[ti] >= until) return;  // already armed for this window
  pause_wakeup_[ti] = until;
  sim_.schedule_at(until, [this, ti] {
    // An overlapping later window may have re-armed past this event; keep
    // the mark then (a still-paused receiver just re-stalls on re-attempt).
    if (pause_wakeup_[ti] <= sim_.now()) pause_wakeup_[ti] = sim::TimePoint{};
    resume(pid_of_[ti]);
  });
}

void Network::subscribe_backlog_drain(ProcessId from,
                                      std::function<void()> observer) {
  SVS_REQUIRE(observer != nullptr, "drain observer must be callable");
  drain_observers_[index_of(from)].push_back(std::move(observer));
}

void Network::notify_drain(std::uint32_t fi) {
  for (const auto& observer : drain_observers_[fi]) observer();
}

void Network::crash(ProcessId id) {
  CrashRecord& record = crash_[index_of(id)];
  if (record.crashed) return;  // already crashed
  record.crashed = true;
  record.at = sim_.now();
  for (const auto& observer : crash_observers_) observer(id, sim_.now());
}

void Network::subscribe_crash(
    std::function<void(ProcessId, sim::TimePoint)> observer) {
  SVS_REQUIRE(observer != nullptr, "crash observer must be callable");
  crash_observers_.push_back(std::move(observer));
}

bool Network::is_crashed(ProcessId id) const {
  const auto idx = find_index(id);
  return idx.has_value() && crash_[*idx].crashed;
}

std::optional<sim::TimePoint> Network::crash_time(ProcessId id) const {
  const auto idx = find_index(id);
  if (!idx.has_value() || !crash_[*idx].crashed) return std::nullopt;
  return crash_[*idx].at;
}

void Network::resume(ProcessId to) {
  const std::uint32_t ti = index_of(to);
  const std::uint32_t n = size();
  for (std::uint32_t fi = 0; fi < n; ++fi) {
    Link* const l = peek_link(fi, ti);
    if (l == nullptr || !l->stalled) continue;
    l->stalled = false;
    schedule_attempt(fi, ti, *l, Lane::data);
  }
}

std::size_t Network::data_backlog(ProcessId from, ProcessId to) const {
  const auto fi = find_index(from);
  const auto ti = find_index(to);
  if (!fi.has_value() || !ti.has_value()) return 0;
  const Link* const l = peek_link(*fi, *ti);
  return l == nullptr ? 0 : l->queue[lane_index(Lane::data)].size();
}

std::pair<std::deque<Network::QueuedMessage>::iterator,
          std::deque<Network::QueuedMessage>::iterator>
Network::window_of(std::deque<QueuedMessage>& q, std::uint64_t floor_key,
                   std::uint64_t below_key) {
  auto lo = std::partition_point(
      q.begin(), q.end(),
      [&](const QueuedMessage& qm) { return qm.order_key < floor_key; });
  auto hi = std::partition_point(
      lo, q.end(),
      [&](const QueuedMessage& qm) { return qm.order_key < below_key; });
  return {lo, hi};
}

std::size_t Network::erase_outgoing(ProcessId from, VictimRef victim,
                                    bool count_as_purged) {
  const std::uint32_t fi = index_of(from);
  const LinkRefScope scope(*this);
  std::size_t total = 0;
  auto& row = links_[fi];  // never-used links hold nothing to erase
  for (std::uint32_t ti = 0; ti < row.size(); ++ti) {
    if (row[ti] == nullptr) continue;
    Link& l = *row[ti];
    auto& q = l.queue[lane_index(Lane::data)];
    const std::size_t before = q.size();
    if (before == 0) continue;
    const bool head_scheduled = l.pending[lane_index(Lane::data)].valid();
    const Message* head = q.front().message.get();

    std::uint64_t removed_bytes = 0;
    std::erase_if(q, [&](const QueuedMessage& qm) {
      if (!victim(qm.message)) return false;
      removed_bytes += qm.message->wire_size();
      return true;
    });

    const std::size_t removed = before - q.size();
    if (removed == 0) continue;
    if (count_as_purged) {
      stats_.purged_outgoing += removed;
      stats_.bytes_purged += removed_bytes;
    }
    notify_drain(fi);
    reaim_if_head_removed(l, fi, ti, head_scheduled, head);
    total += removed;
  }
  return total;
}

std::size_t Network::purge_outgoing(ProcessId from, VictimRef victim) {
  return erase_outgoing(from, victim, /*count_as_purged=*/true);
}

std::size_t Network::purge_outgoing_window(ProcessId from, ProcessId to,
                                           std::uint64_t floor_key,
                                           std::uint64_t below_key,
                                           VictimRef victim) {
  if (floor_key >= below_key) return 0;
  const std::uint32_t fi = index_of(from);
  const std::uint32_t ti = index_of(to);
  Link* const lp = peek_link(fi, ti);
  if (lp == nullptr) return 0;
  const LinkRefScope scope(*this);
  Link& l = *lp;
  auto& q = l.queue[lane_index(Lane::data)];
  const auto [lo, hi] = window_of(q, floor_key, below_key);
  if (lo == hi) return 0;
  stats_.purge_window_scanned += static_cast<std::uint64_t>(hi - lo);

  const bool head_scheduled = l.pending[lane_index(Lane::data)].valid();
  const Message* head = q.front().message.get();

  // Compact [lo, hi) in place: only the window and the tail shift.
  auto keep = lo;
  std::uint64_t removed_bytes = 0;
  for (auto it = lo; it != hi; ++it) {
    if (victim(it->message)) {
      removed_bytes += it->message->wire_size();
      continue;
    }
    if (keep != it) *keep = std::move(*it);
    ++keep;
  }
  const auto removed = static_cast<std::size_t>(hi - keep);
  if (removed == 0) return 0;
  q.erase(keep, hi);
  stats_.purged_outgoing += removed;
  stats_.bytes_purged += removed_bytes;
  notify_drain(fi);
  reaim_if_head_removed(l, fi, ti, head_scheduled, head);
  return removed;
}

std::size_t Network::count_outgoing_window(ProcessId from, ProcessId to,
                                           std::uint64_t floor_key,
                                           std::uint64_t below_key,
                                           VictimRef pred) {
  if (floor_key >= below_key) return 0;
  const std::uint32_t fi = index_of(from);
  const std::uint32_t ti = index_of(to);
  Link* const lp = peek_link(fi, ti);
  if (lp == nullptr) return 0;
  const LinkRefScope scope(*this);
  auto& q = lp->queue[lane_index(Lane::data)];
  const auto [lo, hi] = window_of(q, floor_key, below_key);
  stats_.purge_window_scanned += static_cast<std::uint64_t>(hi - lo);
  std::size_t count = 0;
  for (auto it = lo; it != hi; ++it) {
    if (pred(it->message)) ++count;
  }
  return count;
}

std::size_t Network::drop_outgoing(ProcessId from, VictimRef victim) {
  return erase_outgoing(from, victim, /*count_as_purged=*/false);
}

void Network::reaim_if_head_removed(Link& l, std::uint32_t fi,
                                    std::uint32_t ti, bool head_scheduled,
                                    const Message* old_head) {
  const int li = lane_index(Lane::data);
  auto& q = l.queue[li];
  const bool head_removed =
      old_head != nullptr && (q.empty() || q.front().message.get() != old_head);
  if (head_scheduled && head_removed) {
    sim_.cancel(l.pending[li]);
    l.pending[li] = sim::EventId{};
    schedule_attempt(fi, ti, l, Lane::data);
  }
}

void Network::set_link_slowdown(ProcessId from, ProcessId to,
                                sim::Duration extra) {
  SVS_REQUIRE(extra >= sim::Duration::zero(), "slowdown must be >= 0");
  link_at(index_of(from), index_of(to)).slowdown = extra;
}

}  // namespace svs::net
