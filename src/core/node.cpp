#include "core/node.hpp"

#include <algorithm>
#include <utility>

#include "sim/random.hpp"
#include "util/pool.hpp"

namespace svs::core {
namespace {

// Quiescent-gossip ladder (DESIGN.md §10): clean rounds between heartbeats
// while unconverged, and consecutive no-progress heartbeats before the
// gossip timer parks.
constexpr std::uint64_t kSilentRoundPeriod = 4;
constexpr std::uint64_t kHeartbeatBudget = 8;

// Ring-aggregated stability digests (DESIGN.md §11): views of at least
// kDigestRingThreshold members ship per-origin digest rows to
// kDigestRingFanout deterministic ring successors instead of multicasting
// an all-to-all StabilityMessage — O(fanout) control messages per member
// per round instead of O(n).  Smaller views (every golden) stay all-to-all.
constexpr std::size_t kDigestRingThreshold = 16;
constexpr std::size_t kDigestRingFanout = 2;

// How long a view change waits for the PREDs of *suspected* members before
// proposing without them (DESIGN.md §11).  A live member that was falsely
// suspected answers within one round trip; folding its PRED in keeps it in
// the next view and brings the covers of its sender-side purges into the
// agreed pred-view — without them a receiver that delivered past a purged
// gap closes the view with the gap uncovered (FIFO-SR clause (ii)).  A
// crashed member stays silent and costs the change at most this long.
constexpr sim::Duration kPredGrace = sim::Duration::millis(30);

/// The digest ring's position of a member: sim::splitmix64 of its id, so
/// the member order is deterministic across platforms and runs.
std::uint64_t ring_mix(net::ProcessId id) {
  std::uint64_t state = id.value();
  return sim::splitmix64(state);
}

}  // namespace

Node::Node(sim::Simulator& simulator, net::Transport& network,
           fd::FailureDetector& detector, net::ProcessId self, View initial,
           NodeConfig config, NodeObserver* observer)
    : sim_(simulator),
      net_(network),
      fd_(detector),
      self_(self),
      config_(std::move(config)),
      observer_(observer),
      view_(std::move(initial)),
      queue_(config_.relation, self, observer),
      consensus_mux_(network, detector, self) {
  SVS_REQUIRE(config_.relation != nullptr, "a relation oracle is required");
  SVS_REQUIRE(view_.contains(self_), "initial view must contain this node");
  // This node's own channel anchor: its covered frontier starts just below
  // its first multicast of the view (seqs start at 1, so the anchor is 0).
  stability_.set_anchor(self_, view_first_seq_ - 1);
  stability_.clear_dirty();  // nothing to gossip until traffic flows
  net_.attach(self_, *this);
  net_.subscribe_backlog_drain(self_, [this] { notify_unblocked(); });
  // t7's guard re-evaluates whenever the suspect set changes.
  fd_.subscribe([this] { try_propose(); });
  // The first view notification, so applications always learn membership
  // from the delivery stream.
  queue_.push_view(view_);
  compute_ring_successors();
}

// ---------------------------------------------------------------------------
// digest ring (DESIGN.md §11)
// ---------------------------------------------------------------------------

bool Node::ring_mode() const { return view_.size() >= kDigestRingThreshold; }

void Node::compute_ring_successors() {
  ring_successors_.clear();
  if (!ring_mode()) return;
  // Deterministic ring: members ordered by their splitmix64 hash (id as
  // tie-break), successors are the next fanout members after self.  Every
  // member computes the same ring from the agreed view, no coordination.
  std::vector<net::ProcessId> ring(view_.members().begin(),
                                   view_.members().end());
  std::sort(ring.begin(), ring.end(),
            [](net::ProcessId a, net::ProcessId b) {
              const auto ha = ring_mix(a);
              const auto hb = ring_mix(b);
              if (ha != hb) return ha < hb;
              return a < b;
            });
  const auto self_pos = std::find(ring.begin(), ring.end(), self_);
  SVS_ASSERT(self_pos != ring.end(), "this node is in its own view");
  const std::size_t start =
      static_cast<std::size_t>(self_pos - ring.begin());
  const std::size_t fanout = std::min(kDigestRingFanout, ring.size() - 1);
  ring_successors_.reserve(fanout);
  for (std::size_t i = 1; i <= fanout; ++i) {
    ring_successors_.push_back(ring[(start + i) % ring.size()]);
  }
}

StabilityDigestMessage::Row Node::make_relay_row(net::ProcessId origin) const {
  StabilityDigestMessage::Row row;
  row.origin = origin;
  row.anchor = stability_.channel_anchor(origin);
  const auto& reports = stability_.peer_reports();
  const auto report = reports.find(origin);
  if (report != reports.end()) {
    row.report.seen.assign(report->second.begin(), report->second.end());
  }
  const auto debts = relay_debts_.find(origin);
  if (debts != relay_debts_.end()) {
    row.report.debts.reserve(debts->second.size());
    for (const auto& [seq, cover] : debts->second) {
      row.report.debts.push_back(PurgeDebt{seq, cover});
    }
  }
  return row;
}

void Node::retain_relay_debts(net::ProcessId origin,
                              const StabilityReport::Debts& debts) {
  if (debts.empty()) return;
  auto& retained = relay_debts_[origin];
  for (const auto& debt : debts) {
    retained.try_emplace(debt.seq, debt.cover_seq);
  }
}

void Node::handle_stability_digest(
    net::ProcessId from,
    const std::shared_ptr<const StabilityDigestMessage>& m) {
  (void)from;
  if (excluded_ || m->view() != view_.id()) return;  // stale or early; drop
  bool any_news = false;
  for (const auto& row : m->rows()) {
    if (row.origin == self_) continue;  // nobody relays our state to us
    // Idempotent, commutative max/union merges: multi-hop relay order never
    // matters.  Relayed debts are retained for onward relay even when this
    // row taught nothing, since a successor may still need them.
    const bool news = merge_stability(row.origin, row.anchor, row.report);
    retain_relay_debts(row.origin, row.report.debts);
    if (news) {
      dirty_rows_.insert(row.origin);
      any_news = true;
    }
  }
  collect_stable();
  if (stability_.dirty() || !dirty_rows_.empty()) {
    note_gossip_progress();
    arm_stability_gossip();
    return;
  }
  consider_refresh(any_news);
}

// ---------------------------------------------------------------------------
// t1 — deliver
// ---------------------------------------------------------------------------

std::optional<Delivery> Node::try_deliver() {
  auto entry = queue_.pop_front();
  if (!entry.has_value()) return std::nullopt;

  if (entry->data != nullptr) {
    ++stats_.delivered_data;
    if (entry->data->view() == view_.id()) {
      queue_.record_delivered(entry->data);
    } else {
      // Remnant of a previous view (its id left the accepted set at install).
    }
    if (config_.delivery_capacity != 0) {
      net_.resume(self_);   // space freed: stalled links may retry
      notify_unblocked();   // the producer's self-copy may fit now
    }
    if (observer_ != nullptr) observer_->on_deliver(self_, entry->data);
    return Delivery{DataDelivery{std::move(entry->data)}};
  }

  SVS_ASSERT(entry->view.has_value(), "queue entry is neither data nor view");
  const View& v = *entry->view;
  if (v.contains(self_)) {
    if (observer_ != nullptr) observer_->on_install(self_, v);
    return Delivery{ViewDelivery{v}};
  }
  const ViewId last(v.id().value() - 1);
  if (observer_ != nullptr) observer_->on_excluded(self_, last);
  return Delivery{ExclusionDelivery{last}};
}

// ---------------------------------------------------------------------------
// t2 — multicast
// ---------------------------------------------------------------------------

bool Node::can_multicast() const {
  if (change_.blocked() || excluded_ || !view_.contains(self_)) return false;
  if (config_.out_capacity != 0) {
    for (const auto peer : view_.members()) {
      if (peer == self_) continue;
      if (net_.data_backlog(self_, peer) >= config_.out_capacity) return false;
    }
  }
  if (config_.delivery_capacity != 0 &&
      queue_.data_count() + 1 > config_.delivery_capacity) {
    return false;
  }
  return true;
}

std::optional<std::uint64_t> Node::multicast(PayloadPtr payload,
                                             obs::Annotation annotation) {
  if (change_.blocked() || excluded_ || !view_.contains(self_)) {
    ++stats_.multicast_blocked;
    return std::nullopt;
  }

  const auto m = util::pool_shared<DataMessage>(
      self_, next_seq_, view_.id(), std::move(annotation), std::move(payload));

  // Flow control (§5.3) first: a full outgoing buffer towards any member,
  // or a full local delivery queue, blocks the producer.  Admission
  // accounts for the space this message's own purging would free, but only
  // *counts* — nothing is evicted before the commit point below, so a
  // refused multicast leaves every buffer intact and the messages the
  // never-sent covering message would have obsoleted still flow.
  if (config_.out_capacity != 0) {
    for (const auto peer : view_.members()) {
      if (peer == self_) continue;
      const std::size_t backlog = net_.data_backlog(self_, peer);
      if (backlog < config_.out_capacity) continue;
      const std::size_t victims =
          config_.purge_outgoing ? count_outgoing_victims(peer, *m) : 0;
      if (backlog - victims >= config_.out_capacity) {
        ++stats_.multicast_blocked;
        return std::nullopt;
      }
    }
  }
  std::size_t self_victims = 0;
  if (config_.purge_delivery_queue) {
    self_victims = queue_.count_victims(*m, view_.id());
  }
  if (config_.delivery_capacity != 0 &&
      queue_.data_count() + 1 - self_victims > config_.delivery_capacity) {
    ++stats_.multicast_blocked;
    return std::nullopt;
  }

  // Committed: assign the sequence number and go.
  ++next_seq_;
  ++stats_.multicasts;
  if (observer_ != nullptr) observer_->on_multicast(self_, m);

  // Sender-side semantic purging ([22], enabled for the semantic protocol):
  // enqueueing a new message evicts the messages it covers from the
  // outgoing buffers, which is what lets a slow receiver's buffer drain
  // without being consumed.  The purge is windowed (DESIGN.md §2): only
  // queued entries with seq in [coverage_floor(m), seq(m)) are visited —
  // the window is per-message, so it is resolved once before the fan-out
  // (for a message that can cover nothing, the whole loop vanishes).
  //
  // The same facts decide the hold (DESIGN.md §9).  A message the relation
  // can purge with whose annotation names an earlier message is an
  // overwrite, and the next write of its object is the likeliest to purge
  // it in turn; it is marked to wait in the purgeable outgoing buffer
  // where the network holds only marked messages (distributed UDP mode).
  // A message that names nothing goes out at once.
  if (config_.purge_outgoing) {
    const auto [floor_seq, below_seq] = outgoing_purge_window(*m);
    if (floor_seq < below_seq) {
      for (const auto peer : view_.members()) {
        if (peer == self_) continue;
        purge_outgoing_covered(peer, m, floor_seq, below_seq);
      }
      if (m->annotation().names_predecessor()) m->set_held();
    }
  }

  // addToTail(to-deliver, m); purge(to-deliver) — the sender delivers its
  // own messages, so they are flushed to others if it survives into the
  // next view.  note_seen runs before the piggyback attach so the delta
  // section captures this very message's frontier advance, and the attach
  // runs before the send so the section is part of the encoded frame.
  if (config_.purge_delivery_queue) queue_.purge_with(m, view_.id());
  queue_.push_data(m);
  note_seen(*m);
  maybe_attach_piggyback(*m);
  net_.multicast(self_, view_.members(), m, net::Lane::data);
  notify_deliverable();
  return m->seq();
}

// ---------------------------------------------------------------------------
// sender-side purging helpers — the windowed outgoing fast path
// ---------------------------------------------------------------------------

std::pair<std::uint64_t, std::uint64_t> Node::outgoing_purge_window(
    const DataMessage& m) const {
  // m can only cover this sender's seqs in [coverage_floor, seq).
  return {config_.relation->coverage_floor(m.ref()), m.seq()};
}

bool Node::covers_outgoing(const net::MessagePtr& queued, const DataMessage& m,
                           const obs::MessageRef& mref) const {
  if (queued->type() != net::MessageType::data) return false;
  const auto* dm = static_cast<const DataMessage*>(queued.get());
  return dm->view() == m.view() && config_.relation->covers(mref, dm->ref());
}

std::size_t Node::count_outgoing_victims(net::ProcessId peer,
                                         const DataMessage& m) {
  const auto [floor_seq, below_seq] = outgoing_purge_window(m);
  const auto mref = m.ref();
  return net_.count_outgoing_window(
      self_, peer, floor_seq, below_seq,
      [&](const net::MessagePtr& queued) {
        return covers_outgoing(queued, m, mref);
      });
}

void Node::purge_outgoing_covered(net::ProcessId peer, const DataMessagePtr& m,
                                  std::uint64_t floor_seq,
                                  std::uint64_t below_seq) {
  const auto mref = m->ref();
  net_.purge_outgoing_window(
      self_, peer, floor_seq, below_seq,
      [&](const net::MessagePtr& queued) {
        if (!covers_outgoing(queued, *m, mref)) return false;
        const auto victim =
            std::static_pointer_cast<const DataMessage>(queued);
        // The purge becomes a wire fact: the debt (victim -> m) rides the
        // stability gossip, so receivers can tell "purged with live cover"
        // from "lost" when the victim's seq is a gap below their mark
        // (DESIGN.md §3/§7).  One debt per seq, however many buffers this
        // multicast purges it from.
        if (stability_.record_own_debt(victim->seq(), m->seq())) {
          ++stats_.debts_recorded;
        }
        if (observer_ != nullptr) observer_->on_purge(self_, victim, m);
        return true;
      });
}

// ---------------------------------------------------------------------------
// t3 — receive data
// ---------------------------------------------------------------------------

bool Node::handle_data(net::ProcessId from, const DataMessagePtr& m) {
  if (excluded_) return true;  // consume and ignore: no longer in the group

  if (m->view().value() < view_.id().value()) {
    // Sent in a superseded view; the agreed pred-view already settled what
    // is delivered there.
    ++stats_.stale_view_drops;
    return true;
  }
  // A piggybacked stability section of the current view is usable as soon
  // as the view matches — even when the data itself is refused or dropped
  // as duplicate below (merging is idempotent, so a flow-control redelivery
  // merging twice is harmless).  Future-view piggybacks wait with their
  // message; past-view ones died with the early return above.
  if (m->view() == view_.id() && m->piggyback().has_value()) {
    merge_piggyback(from, *m->piggyback());
  }

  if (change_.blocked() || m->view().value() > view_.id().value()) {
    // Blocked (t3's ¬blocked guard) or sent in a view this node has not
    // installed yet: leave it in the channel until the view change settles.
    ++stats_.refused_data;
    return false;
  }

  SVS_ASSERT(view_.contains(from), "DATA in cv from a non-member");

  // Network-level duplication (an injected fault, or a conservative
  // retransmitter in a real stack) is tolerated: FIFO channels deliver the
  // copy after the original, so a current-view arrival at or below the
  // per-sender reception high-water mark can only be a duplicate.  The
  // accepted() probe alone would not do — the original may have been
  // suppressed as obsolete, or already stability-collected.
  const auto frontier = stability_.high_water(m->sender());
  if ((frontier.has_value() && m->seq() <= *frontier) ||
      queue_.accepted(m->id())) {
    ++stats_.duplicate_drops;
    return true;  // consumed; the original already went through t3
  }

  // t3's test: already covered by an accepted message?
  if (queue_.covered_by_accepted(*m, view_.id())) {
    ++stats_.suppressed_obsolete;
    note_seen(*m);
    return true;  // consumed; never enters the queue
  }

  // Count the space its purging would free before checking capacity.
  std::size_t victims = 0;
  if (config_.purge_delivery_queue) {
    victims = queue_.count_victims(*m, view_.id());
  }
  if (config_.delivery_capacity != 0 &&
      queue_.data_count() + 1 - victims > config_.delivery_capacity) {
    ++stats_.refused_data;
    return false;  // ceases to accept from the network (§5.3)
  }

  if (victims > 0) queue_.purge_with(m, view_.id());
  queue_.push_data(m);
  note_seen(*m);
  notify_deliverable();
  return true;
}

void Node::note_seen(const DataMessage& m) {
  stability_.note_seen(m.sender(), m.seq());
  note_gossip_progress();
  arm_stability_gossip();
}

void Node::note_gossip_progress() {
  clean_rounds_ = 0;
  fruitless_heartbeats_ = 0;
  refresh_spent_ = false;
}

// ---------------------------------------------------------------------------
// stability tracking — GC of the delivered history (§2.1)
// ---------------------------------------------------------------------------

void Node::arm_stability_gossip() {
  if (stability_armed_ || excluded_ ||
      config_.stability_interval <= sim::Duration::zero()) {
    return;
  }
  stability_armed_ = true;
  sim_.schedule_after(config_.stability_interval, [this] {
    stability_armed_ = false;
    gossip_stability();
  });
}

void Node::gossip_stability() {
  if (excluded_) return;

  // Quiescent gossip (DESIGN.md §10): a clean timer firing is *suppressed* —
  // silence tells the peers "nothing changed", which is sound because
  // frontiers are monotone and merging is idempotent (a peer that misses
  // nothing can learn nothing from an empty round).  Silence is bounded:
  // while convergence is outstanding (retained history, live debts) every
  // kSilentRoundPeriod-th clean round escalates to a full-vector
  // heartbeat, which repairs any lost round; heartbeats that observe no
  // progress are budgeted so a floor held down by a crashed member (which
  // only a view change can lift) parks the timer instead of ticking
  // forever.
  bool force_full = false;
  const bool relay_news = ring_mode() && !dirty_rows_.empty();
  if (!stability_.dirty() && !relay_news) {
    if (refresh_pending_) {
      refresh_pending_ = false;
      force_full = true;  // anti-entropy response to a still-gossiping peer
      ++stats_.gossip_heartbeats;
    } else {
      // Floors may already cover messages the application consumed after
      // the last merge (nothing re-runs collection on local delivery) —
      // sweep before judging convergence, or a fully-stable node would
      // tick suppressed rounds against its own stale retained count.
      collect_stable();
      const bool converged = queue_.delivered_retained() == 0 &&
                             stability_.own_debts() == 0 &&
                             stability_.merged_debts() == 0;
      if (converged) {
        // Nothing to report and nothing outstanding: true silence.  The
        // timer parks; the next delivery, merge or install re-arms it.
        clean_rounds_ = 0;
        fruitless_heartbeats_ = 0;
        return;
      }
      ++clean_rounds_;
      if (clean_rounds_ % kSilentRoundPeriod != 0) {
        ++stats_.gossip_rounds_suppressed;
        arm_stability_gossip();
        return;
      }
      const bool progressed = queue_.delivered_retained() != hb_retained_ ||
                              stability_.own_debts() != hb_own_debts_ ||
                              stability_.merged_debts() != hb_merged_debts_;
      if (!progressed && fruitless_heartbeats_ >= kHeartbeatBudget) {
        ++stats_.gossip_rounds_suppressed;
        return;  // park: only a progress event re-arms and resets the budget
      }
      fruitless_heartbeats_ = progressed ? 0 : fruitless_heartbeats_ + 1;
      hb_retained_ = queue_.delivered_retained();
      hb_own_debts_ = stability_.own_debts();
      hb_merged_debts_ = stability_.merged_debts();
      ++stats_.gossip_heartbeats;
      force_full = true;
    }
  }

  // Delta gossip: frontiers are monotone, merge_report is a per-entry max
  // and debt merging is a union, so shipping only the entries that changed
  // since the last round is equivalent to a full snapshot — O(changed)
  // instead of O(n) bytes per peer, O(n²) -> O(changes) gossip bytes
  // group-wide.  A receiver drops rounds sent across a view mismatch
  // (install skew), which would lose delta entries for good, so the first
  // rounds of a view and every kFullGossipPeriod-th thereafter ship the
  // full vector and the full debt ledger — any dropped delta is repaired
  // by the next full round (an incomplete debt picture only under-explains
  // gaps, which is conservative: frontiers lag, collection waits).
  constexpr std::uint64_t kFullGossipPeriod = 8;
  const bool full = force_full || gossip_round_ < 2 ||
                    gossip_round_ % kFullGossipPeriod == 0;
  ++gossip_round_;
  auto report = take_report(full);
  const std::uint64_t anchor = view_first_seq_ - 1;
  if (ring_mode()) {
    // Ring digest (DESIGN.md §11): the self row is exactly the all-to-all
    // round's content, followed by the relayed rows that changed since the
    // last digest (every known row on full rounds, the self-healing
    // analogue of the full-vector gossip).  Shipped to O(fanout) ring
    // successors instead of the whole view.
    StabilityDigestMessage::Rows rows;
    rows.push_back(
        StabilityDigestMessage::Row{self_, anchor, std::move(report)});
    if (full) {
      for (const auto& peer : stability_.peer_reports()) {
        if (peer.first == self_) continue;
        rows.push_back(make_relay_row(peer.first));
      }
    } else {
      for (const auto origin : dirty_rows_) {
        if (origin == self_) continue;
        rows.push_back(make_relay_row(origin));
      }
    }
    dirty_rows_.clear();
    ++stats_.digest_rounds;
    stats_.digest_rows_sent += rows.size();
    const auto digest = util::pool_shared<StabilityDigestMessage>(
        view_.id(), std::move(rows));
    for (const auto successor : ring_successors_) {
      net_.send(self_, successor, digest, net::Lane::control);
    }
    arm_stability_gossip();  // keep gossiping while traffic flows
    return;
  }

  if (!full) {
    // Bytes the full report would have cost over this delta, credited
    // across the fan-out.  The ledger aggregates the full report's entry
    // bytes incrementally, so nothing is materialized on the delta path.
    const std::size_t full_bytes = report_wire_size(
        stability_.tracked_senders(), stability_.entry_wire_bytes(),
        stability_.own_debts(), stability_.debt_wire_bytes());
    net_.note_gossip_bytes_saved(
        static_cast<std::uint64_t>(full_bytes - report_wire_size(report)) *
        (view_.size() - 1));
  }
  const auto m = util::pool_shared<StabilityMessage>(view_.id(), anchor,
                                                     std::move(report));
  net_.multicast(self_, view_.members(), m, net::Lane::control);
  arm_stability_gossip();  // keep gossiping while traffic flows
}

StabilityReport Node::take_report(bool full) {
  auto report = full ? stability_.take_snapshot() : stability_.take_delta();
  stats_.debt_entries_gossiped += report.debts.size();
  for (const auto& debt : report.debts) {
    stats_.debt_bytes_gossiped += purge_debt_wire_size(debt);
  }
  return report;
}

bool Node::merge_stability(net::ProcessId origin,
                           std::optional<std::uint64_t> anchor,
                           const StabilityReport& report) {
  bool news = anchor.has_value() && stability_.set_anchor(origin, *anchor);
  news |= stability_.merge_debts(origin, report.debts);
  news |= stability_.merge_report(origin, report.seen);
  return news;
}

void Node::handle_stability(net::ProcessId from,
                            const std::shared_ptr<const StabilityMessage>& m) {
  if (excluded_ || m->view() != view_.id()) return;  // stale or early; drop
  const bool news = merge_stability(from, m->anchor(), m->report());
  if (ring_mode() && news) {
    // The sender's round is relayable knowledge: its row changed here.
    dirty_rows_.insert(from);
    retain_relay_debts(from, m->report().debts);
  }
  collect_stable();
  // Merging can advance this node's own covered frontiers (a debt just
  // explained a gap) — that is reportable state, so the gossip must run
  // again even if no data arrives in the meantime.
  if (stability_.dirty()) {
    note_gossip_progress();
    arm_stability_gossip();
    return;
  }
  consider_refresh(news);
}

void Node::consider_refresh(bool news) {
  // Anti-entropy refresh: a round that taught this node *nothing* is a
  // peer re-sending state we already merged — a stuck peer, most likely
  // missing this node's report (lost ahead of a silent stretch) and
  // heartbeating against a floor that cannot move without it.  Answer
  // with one forced full round, at most once per progress epoch
  // (refresh_spent_) and once per heartbeat window (last_refresh_), so
  // mutual refreshes between two stuck nodes terminate instead of
  // ping-ponging forever.  A round carrying news never triggers a refresh:
  // mid-traffic rounds always advance something here, and the sender will
  // get this node's state from its ordinary dirty rounds.
  if (!news && !refresh_spent_ &&
      config_.stability_interval > sim::Duration::zero() &&
      sim_.now() - last_refresh_ >=
          config_.stability_interval *
              static_cast<std::int64_t>(kSilentRoundPeriod)) {
    refresh_spent_ = true;
    refresh_pending_ = true;
    last_refresh_ = sim_.now();
    arm_stability_gossip();
  }
}

void Node::collect_stable() {
  // A message is stable once every current member's covered frontier
  // passed it: each member then provably received it or received a cover
  // resolved through the sender-announced purge debts, so no future flush
  // can need it (DESIGN.md §3/§7).  One rule for every relation.  Any
  // member that has not reported yet (or a crashed one whose reports
  // stopped) holds the floor down — stability then waits for the view
  // change that excludes it, as in a real group stack.
  if (queue_.delivered_retained() != 0) {
    stats_.stability_gcs += queue_.collect_delivered(
        [this](net::ProcessId sender) {
          return stability_.floor_of(sender, view_, self_);
        });
  }
  // Debts whose seq every member's frontier passed retire with the
  // messages they explained — the ledger stays bounded by the un-stable
  // window.
  stats_.debts_collected += stability_.collect_debts(view_, self_);
}

void Node::maybe_attach_piggyback(DataMessage& m) {
  // Quiescent gossip rides the stability delta on outgoing DATA: under
  // traffic the group's stability knowledge spreads at data latency with a
  // few extra bytes per message, so the standalone gossip lane stays
  // suppressed.  Rate-limited to one section per stability_interval — the
  // cadence a standalone round would have had — so a flood does not pay
  // section bytes on every message.  Runs post-commit, pre-encode: the
  // message has its final seq but no cached wire size or frame yet.
  if (config_.stability_interval <= sim::Duration::zero() ||
      !stability_.dirty()) {
    return;
  }
  const auto now = sim_.now();
  if (piggyback_sent_ && now - last_piggyback_ < config_.stability_interval) {
    return;
  }
  piggyback_sent_ = true;
  last_piggyback_ = now;
  ++stats_.frontier_piggybacks;
  m.set_piggyback(
      StabilityPiggyback{view_first_seq_ - 1, take_report(/*full=*/false)});
}

void Node::merge_piggyback(net::ProcessId from, const StabilityPiggyback& pb) {
  // Same merge as a standalone round of the same view — idempotent and
  // commutative, so piggyback-vs-gossip arrival order never matters.  A
  // piggyback never asks for an anti-entropy refresh: it rides data, so a
  // no-news section is ordinary traffic, not a stuck peer.
  if (merge_stability(from, pb.anchor, pb.report) && ring_mode()) {
    dirty_rows_.insert(from);
    retain_relay_debts(from, pb.report.debts);
  }
  collect_stable();
  if (stability_.dirty()) {
    note_gossip_progress();
    arm_stability_gossip();
  }
}

// ---------------------------------------------------------------------------
// t4 — trigger view change
// ---------------------------------------------------------------------------

bool Node::request_view_change(const std::vector<net::ProcessId>& leave) {
  if (change_.blocked() || excluded_) return false;
  ++stats_.view_changes_initiated;
  const auto init = std::make_shared<InitMessage>(view_.id(), leave);
  net_.multicast(self_, view_.members(), init, net::Lane::control,
                 /*skip_self=*/false);
  return true;
}

// ---------------------------------------------------------------------------
// t5 — first INIT: block, emit PRED
// ---------------------------------------------------------------------------

void Node::handle_init(net::ProcessId from,
                       const std::shared_ptr<const InitMessage>& m) {
  if (excluded_) return;
  if (m->view().value() < view_.id().value()) return;  // superseded
  if (m->view().value() > view_.id().value()) {
    change_.defer(m->view().value(), from, m);
    return;
  }
  if (change_.blocked()) return;  // only the first INIT is acted upon

  change_.begin(*m, view_, sim_.now());

  // Re-check the proposal guard when the suspected-member pred grace runs
  // out: every PRED arrival re-checks it too, but if the last awaited PRED
  // never comes (the member really is dead) nothing else would.  A stale
  // timer is harmless — ready_to_propose re-validates everything,
  // including the *current* change's own start time.
  sim_.schedule_after(kPredGrace, [this] { try_propose(); });

  // Forward so every correct process initiates (t5).
  if (from != self_) {
    net_.multicast(self_, view_.members(), m, net::Lane::control,
                   /*skip_self=*/false);
  }

  const auto pred = std::make_shared<PredMessage>(view_.id(), local_pred());
  net_.multicast(self_, view_.members(), pred, net::Lane::control,
                 /*skip_self=*/false);

  // Opened last: the Mux may have buffered the decision already (this node
  // can be the last to hear about the change), in which case opening the
  // instance installs the next view synchronously — all t5 work must be
  // done by then.
  open_consensus();
}

std::vector<DataMessagePtr> Node::local_pred() const {
  // {[DATA, v, d] ∈ (delivered ∪ to-deliver) : v = cv}, in delivery order.
  std::vector<DataMessagePtr> result;
  queue_.append_local_pred(view_.id(), result);
  return result;
}

// ---------------------------------------------------------------------------
// t6 — accumulate PRED
// ---------------------------------------------------------------------------

void Node::handle_pred(net::ProcessId from,
                       const std::shared_ptr<const PredMessage>& m) {
  if (excluded_) return;
  if (m->view().value() < view_.id().value()) return;
  if (m->view().value() > view_.id().value()) {
    change_.defer(m->view().value(), from, m);
    return;
  }
  change_.add_pred(from, *m);
  try_propose();
}

// ---------------------------------------------------------------------------
// t7 — propose and install
// ---------------------------------------------------------------------------

void Node::try_propose() {
  if (excluded_ ||
      !change_.ready_to_propose(view_, fd_, sim_.now(), kPredGrace)) {
    return;
  }

  // The instance was opened at t5.
  consensus_mux_.propose(consensus::InstanceId(view_.id().value()),
                         change_.take_proposal(view_));
}

void Node::open_consensus() {
  consensus_mux_.open(
      consensus::InstanceId(view_.id().value()), view_.members(),
      [this](const consensus::ValuePtr& value) {
        const auto decided =
            std::dynamic_pointer_cast<const ProposalValue>(value);
        SVS_ASSERT(decided != nullptr,
                   "view-change consensus decided a foreign value type");
        install(*decided);
      });
}

void Node::install(const ProposalValue& decided) {
  SVS_ASSERT(change_.blocked() && !excluded_, "install outside a view change");
  SVS_ASSERT(decided.next_view().id() == view_.id().next(),
             "consensus decided a non-successor view");
  // This node leaves a view only through that view's decision, so every
  // instance below the next view has decided here: close them.  Safe from
  // inside the deciding instance's callback: the Mux destroys closed
  // instances only once its outermost call returns.
  consensus_mux_.close_below(
      consensus::InstanceId(decided.next_view().id().value()));

  // Flush: append the agreed messages this process is missing, in
  // (sender, seq) order.  A message is skipped when (a) it is still here,
  // (b) its §3.2 obligation is already discharged — it was received here
  // (the exact reception record, NOT the raw high-water mark: sender-side
  // purging leaves gaps below the mark that were never received), or a
  // received message covers it through the sender-announced purge-debt
  // chain (a debt-known gap whose live cover arrived needs no retro
  // repair) — or (c) a queued message covers it (t3's own test; a cover
  // already delivered does not stop the flush, see covered_by_accepted).
  // Capacity is not enforced here: the flush uses the reserved view-change
  // space (§5.3).
  for (const auto& m : decided.pred_view()) {
    if (m->view() != view_.id()) continue;  // defensive; all should be cv
    if (queue_.accepted(m->id())) continue;
    if (stability_.obligation_met(m->sender(), m->seq())) continue;
    if (queue_.covered_by_accepted(*m, view_.id())) continue;
    queue_.push_data_flush(m);
    note_seen(*m);
    if (observer_ != nullptr) observer_->on_flush_in(self_, m);
    ++stats_.flushed_in;
  }
  if (config_.purge_delivery_queue) queue_.purge_full(view_.id());

  // addToTail(to-deliver, [VIEW, next-view]).
  queue_.push_view(decided.next_view());
  notify_deliverable();

  ++stats_.views_installed;
  stats_.last_flush_total = decided.pred_view().size();
  stats_.last_change_latency = sim_.now() - change_.started_at();

  if (!decided.next_view().contains(self_)) {
    excluded_ = true;  // stays blocked; the group goes on without this node
    return;
  }

  view_ = decided.next_view();
  change_.reset();
  queue_.reset_view();
  stability_.reset();
  dirty_rows_.clear();   // relayed rows are per-view, like the ledger
  relay_debts_.clear();
  compute_ring_successors();
  view_first_seq_ = next_seq_;  // this view's seqs start here
  stability_.set_anchor(self_, view_first_seq_ - 1);
  stability_.clear_dirty();  // an anchor alone is not worth a gossip round
  gossip_round_ = 0;  // per-view: early rounds ship full vectors again
  note_gossip_progress();  // a view change is churn: silence starts over
  refresh_pending_ = false;
  piggyback_sent_ = false;  // the new view re-anchors the piggyback cadence

  // Outgoing messages of superseded views would be discarded on arrival;
  // reclaim their buffer space now (this is what frees the buffers that
  // were saturated towards a crashed or expelled member).
  net_.drop_outgoing(self_, [nv = view_.id()](const net::MessagePtr& queued) {
    return queued->type() == net::MessageType::data &&
           static_cast<const DataMessage*>(queued.get())->view() != nv;
  });

  for (const auto& callback : install_callbacks_) callback(view_);
  replay_pending_control();
  net_.resume(self_);  // accept data again (stale ones get discarded)
  notify_unblocked();
}

void Node::replay_pending_control() {
  // Drop anything for superseded views, replay what targets the new view.
  // A replay may install a further view synchronously (a buffered
  // decision); its own install() replays the batches that became due.
  const auto batch = change_.take_due(view_.id().value());
  for (const auto& [from, message] : batch) {
    switch (message->type()) {
      case net::MessageType::init:
        handle_init(from,
                    std::static_pointer_cast<const InitMessage>(message));
        break;
      case net::MessageType::pred:
        handle_pred(from,
                    std::static_pointer_cast<const PredMessage>(message));
        break;
      default:
        SVS_UNREACHABLE("deferred control batch holds only INIT/PRED");
    }
  }
}

// ---------------------------------------------------------------------------
// wiring
// ---------------------------------------------------------------------------

bool Node::on_message(net::ProcessId from, const net::MessagePtr& message,
                      net::Lane lane) {
  // Switch on the wire-level type tag — one predicted branch per arrival,
  // no RTTI probes on the receive path.
  if (lane == net::Lane::data) {
    SVS_ASSERT(message->type() == net::MessageType::data,
               "non-data message on the data lane");
    return handle_data(from,
                       std::static_pointer_cast<const DataMessage>(message));
  }
  switch (message->type()) {
    case net::MessageType::init:
      handle_init(from, std::static_pointer_cast<const InitMessage>(message));
      return true;
    case net::MessageType::pred:
      handle_pred(from, std::static_pointer_cast<const PredMessage>(message));
      return true;
    case net::MessageType::stability:
      handle_stability(
          from, std::static_pointer_cast<const StabilityMessage>(message));
      return true;
    case net::MessageType::stability_digest:
      handle_stability_digest(
          from,
          std::static_pointer_cast<const StabilityDigestMessage>(message));
      return true;
    case net::MessageType::consensus: {
      const bool consumed = consensus_mux_.on_message(from, message);
      SVS_ASSERT(consumed, "consensus traffic must be consumed by the mux");
      return true;
    }
    default:
      if (control_sink_ != nullptr) {
        control_sink_(from, message);
        return true;
      }
      SVS_UNREACHABLE("unroutable control message");
  }
}

void Node::set_unblocked_callback(std::function<void()> callback) {
  unblocked_callback_ = std::move(callback);
}

void Node::subscribe_install(std::function<void(const View&)> callback) {
  SVS_REQUIRE(callback != nullptr, "install callback must be callable");
  install_callbacks_.push_back(std::move(callback));
}

void Node::set_control_sink(
    std::function<void(net::ProcessId, const net::MessagePtr&)> sink) {
  control_sink_ = std::move(sink);
}

void Node::set_deliverable_callback(std::function<void()> callback) {
  deliverable_callback_ = std::move(callback);
}

void Node::notify_deliverable() {
  if (deliverable_callback_ == nullptr || deliverable_notify_pending_) return;
  deliverable_notify_pending_ = true;
  sim_.schedule_after(sim::Duration::zero(), [this] {
    deliverable_notify_pending_ = false;
    if (deliverable_callback_ != nullptr && !queue_.empty()) {
      deliverable_callback_();
    }
  });
}

void Node::notify_unblocked() {
  if (unblocked_callback_ == nullptr || unblock_notify_pending_) return;
  unblock_notify_pending_ = true;
  // Deferred to its own event: the trigger often fires mid-operation
  // (e.g. inside a purge during multicast), and producers re-enter
  // multicast from the callback.
  sim_.schedule_after(sim::Duration::zero(), [this] {
    unblock_notify_pending_ = false;
    if (unblocked_callback_ != nullptr) unblocked_callback_();
  });
}

}  // namespace svs::core
