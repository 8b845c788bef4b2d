#include "fd/swim.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/pool.hpp"

namespace svs::fd {
namespace {

/// k — indirect probe relays per failed direct probe.
constexpr std::size_t kIndirectProbes = 3;
/// Maximum membership updates piggybacked on one outgoing message.
constexpr std::size_t kPiggybackLimit = 8;
/// Each update rides ~kRetransmitFactor * log2(n) outgoing messages before
/// it stops disseminating.
constexpr std::uint32_t kRetransmitFactor = 3;

/// Dissemination budget: the classic SWIM bound for whole-group epidemic
/// coverage.
std::uint32_t dissemination_budget(std::size_t group) {
  std::uint32_t lg = 0;
  while ((std::uint64_t{1} << lg) < group + 1) ++lg;
  return kRetransmitFactor * (lg + 1);
}

}  // namespace

SwimDetector::SwimDetector(sim::Simulator& simulator, net::Transport& network,
                           net::ProcessId owner,
                           std::vector<net::ProcessId> peers, Config config)
    : sim_(simulator),
      net_(network),
      owner_(owner),
      peers_(std::move(peers)),
      config_(config),
      rng_(sim::Rng::stream(config.seed, owner.value())) {
  SVS_REQUIRE(config_.period > sim::Duration::zero(),
              "protocol period must be positive");
  SVS_REQUIRE(config_.direct_timeout > sim::Duration::zero() &&
                  config_.direct_timeout < config_.period,
              "direct timeout must fall inside the protocol period");
  SVS_REQUIRE(config_.suspicion_periods >= 1,
              "suspicion must last at least one protocol period");
  SVS_REQUIRE(std::find(peers_.begin(), peers_.end(), owner_) == peers_.end(),
              "a detector does not monitor its own process");
  for (const auto p : peers_) members_.emplace(p, Member{});
  update_budget_ = dissemination_budget(peers_.size() + 1);
}

void SwimDetector::start() {
  SVS_REQUIRE(!started_, "detector already started");
  started_ = true;
  begin_probe();
  sim_.schedule_after(config_.period, [this] { on_period(); });
}

void SwimDetector::on_period() {
  resolve_probe();
  // Relay entries older than a full period can never be answered in a way
  // the origin still cares about; dropping them bounds the relay map.
  relays_.erase(relays_.begin(), relays_.lower_bound(relay_gc_floor_));
  relay_gc_floor_ = next_nonce_;
  begin_probe();
  sim_.schedule_after(config_.period, [this] { on_period(); });
}

void SwimDetector::resolve_probe() {
  if (probe_active_ && !probe_acked_) begin_suspicion(probe_target_);
  probe_active_ = false;
}

std::optional<net::ProcessId> SwimDetector::next_target() {
  // Shuffled round-robin (the SWIM paper's §4.3 refinement): every peer is
  // probed within one cycle, in an order reshuffled per cycle.  Confirmed
  // peers stay in the rotation: until the view layer excludes them they are
  // still members, and probing them is the recovery channel through which a
  // falsely confirmed (e.g. healed-partition) member refutes.
  if (peers_.empty()) return std::nullopt;
  if (probe_cursor_ >= probe_order_.size()) {
    probe_order_ = peers_;
    for (std::size_t i = probe_order_.size(); i > 1; --i) {
      std::swap(probe_order_[i - 1], probe_order_[rng_.below(i)]);
    }
    probe_cursor_ = 0;
  }
  return probe_order_[probe_cursor_++];
}

void SwimDetector::begin_probe() {
  if (peers_.empty()) return;
  const auto target = next_target();
  if (!target.has_value()) return;
  probe_active_ = true;
  probe_acked_ = false;
  probe_target_ = *target;
  probe_nonce_ = next_nonce_++;
  ++counters_.probes_sent;
  // Tell the accused: pinging a member we hold suspect or confirmed
  // re-enqueues that belief so it rides this very ping.  The target then
  // refutes with a bumped incarnation, and its strictly-higher alive is
  // the only update that can clear a confirm — the path that restores
  // accuracy after a healed partition left both sides confirming each
  // other.
  const Member& accused = members_.at(probe_target_);
  if (accused.state != State::alive) {
    enqueue_update(SwimUpdate{probe_target_,
                              accused.state == State::confirmed
                                  ? SwimUpdate::Status::confirm
                                  : SwimUpdate::Status::suspect,
                              accused.incarnation});
  }
  net_.send(owner_, probe_target_,
            util::pool_shared<SwimPingMessage>(probe_nonce_, take_piggyback()),
            net::Lane::control);
  const std::uint64_t nonce = probe_nonce_;
  sim_.schedule_after(config_.direct_timeout,
                      [this, nonce] { on_direct_timeout(nonce); });
}

void SwimDetector::on_direct_timeout(std::uint64_t nonce) {
  if (!probe_active_ || probe_nonce_ != nonce || probe_acked_) return;
  // k random relays, distinct, excluding the target and confirmed peers.
  std::vector<net::ProcessId> candidates;
  candidates.reserve(peers_.size());
  for (const auto p : peers_) {
    if (p != probe_target_ && !confirmed(p)) candidates.push_back(p);
  }
  const std::size_t k = std::min(kIndirectProbes, candidates.size());
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t pick = i + rng_.below(candidates.size() - i);
    std::swap(candidates[i], candidates[pick]);
    ++counters_.indirect_probes_sent;
    net_.send(owner_, candidates[i],
              util::pool_shared<SwimPingReqMessage>(
                  probe_nonce_, probe_target_, take_piggyback()),
              net::Lane::control);
  }
}

void SwimDetector::on_message(net::ProcessId from,
                              const net::MessagePtr& message) {
  switch (message->type()) {
    case net::MessageType::swim_ping:
      handle_ping(from, static_cast<const SwimPingMessage&>(*message));
      break;
    case net::MessageType::swim_ping_req:
      handle_ping_req(from, static_cast<const SwimPingReqMessage&>(*message));
      break;
    case net::MessageType::swim_ack:
      handle_ack(from, static_cast<const SwimAckMessage&>(*message));
      break;
    default:
      break;  // not a SWIM message; ignore
  }
}

void SwimDetector::handle_ping(net::ProcessId from, const SwimPingMessage& m) {
  merge_updates(m.updates());
  net_.send(owner_, from,
            util::pool_shared<SwimAckMessage>(m.nonce(), owner_, incarnation_,
                                              take_piggyback()),
            net::Lane::control);
}

void SwimDetector::handle_ping_req(net::ProcessId from,
                                   const SwimPingReqMessage& m) {
  merge_updates(m.updates());
  if (m.target() == owner_) {
    // Degenerate relay request; answer for ourselves directly.
    net_.send(owner_, from,
              util::pool_shared<SwimAckMessage>(m.nonce(), owner_,
                                                incarnation_,
                                                take_piggyback()),
              net::Lane::control);
    return;
  }
  const std::uint64_t relay_nonce = next_nonce_++;
  relays_.emplace(relay_nonce, Relay{from, m.nonce()});
  ++counters_.ping_reqs_relayed;
  net_.send(owner_, m.target(),
            util::pool_shared<SwimPingMessage>(relay_nonce, take_piggyback()),
            net::Lane::control);
}

void SwimDetector::handle_ack(net::ProcessId from, const SwimAckMessage& m) {
  (void)from;
  merge_updates(m.updates());
  ++counters_.acks_received;
  // The ack certifies its subject alive at the carried incarnation.
  apply_update(
      SwimUpdate{m.subject(), SwimUpdate::Status::alive, m.incarnation()});
  if (probe_active_ && m.nonce() == probe_nonce_ &&
      m.subject() == probe_target_) {
    probe_acked_ = true;
  }
  const auto relay = relays_.find(m.nonce());
  if (relay != relays_.end()) {
    net_.send(owner_, relay->second.origin,
              util::pool_shared<SwimAckMessage>(relay->second.origin_nonce,
                                                m.subject(), m.incarnation(),
                                                take_piggyback()),
              net::Lane::control);
    relays_.erase(relay);
  }
}

void SwimDetector::begin_suspicion(net::ProcessId p) {
  Member& member = members_.at(p);
  if (member.state != State::alive) return;  // already suspect or confirmed
  member.state = State::suspect;
  ++counters_.suspicions;
  enqueue_update(
      SwimUpdate{p, SwimUpdate::Status::suspect, member.incarnation});
  const std::uint64_t incarnation = member.incarnation;
  member.suspicion_timer = sim_.schedule_after(
      config_.period * static_cast<std::int64_t>(config_.suspicion_periods),
      [this, p, incarnation] { on_suspicion_timeout(p, incarnation); });
  notify_changed();
}

void SwimDetector::on_suspicion_timeout(net::ProcessId p,
                                        std::uint64_t incarnation) {
  Member& member = members_.at(p);
  member.suspicion_timer = sim::EventId{};
  // A refutation (or a fresher suspicion with its own timer) got here
  // first; this timeout is stale.
  if (member.state != State::suspect || member.incarnation != incarnation) {
    return;
  }
  member.state = State::confirmed;
  ++counters_.confirms;
  enqueue_update(
      SwimUpdate{p, SwimUpdate::Status::confirm, member.incarnation});
  notify_changed();
}

void SwimDetector::apply_update(const SwimUpdate& update) {
  if (update.member == owner_) {
    // Someone suspects — or has already confirmed — *us*: refute by
    // bumping our incarnation; the strictly-higher alive update beats the
    // stale suspicion or confirm wherever it arrives in time.  Refuting a
    // confirm matters after a healed partition: each side confirmed the
    // other while cut off, and only the accused's own bump can clear it.
    if ((update.status == SwimUpdate::Status::suspect ||
         update.status == SwimUpdate::Status::confirm) &&
        update.incarnation >= incarnation_) {
      incarnation_ = update.incarnation + 1;
      ++counters_.refutations;
      enqueue_update(
          SwimUpdate{owner_, SwimUpdate::Status::alive, incarnation_});
    } else if (update.status == SwimUpdate::Status::alive &&
               update.incarnation > incarnation_) {
      incarnation_ = update.incarnation;  // our own echo, round-tripped
    }
    return;
  }
  const auto it = members_.find(update.member);
  if (it == members_.end()) return;  // not a monitored peer
  Member& member = it->second;
  if (member.state == State::confirmed) {
    // Confirm is sticky — no same-incarnation gossip reopens it — but not
    // terminal: exclusion is the view layer's job, and while the member is
    // still in the view its own refutation (a strictly higher incarnation
    // alive) resurrects it.  Without this a healed partition leaves both
    // sides permanently confirming each other, and consensus — which needs
    // some coordinator eventually unsuspected by all (◊S) — never
    // terminates.
    if (update.status == SwimUpdate::Status::alive &&
        update.incarnation > member.incarnation) {
      member.state = State::alive;
      member.incarnation = update.incarnation;
      ++counters_.refutations;
      enqueue_update(update);
      notify_changed();
    }
    return;
  }
  switch (update.status) {
    case SwimUpdate::Status::alive:
      // Alive overrides suspect only with a strictly higher incarnation —
      // that is what makes a refutation unforgeable by stale gossip.
      if (update.incarnation > member.incarnation) {
        member.incarnation = update.incarnation;
        if (member.state == State::suspect) {
          member.state = State::alive;
          if (member.suspicion_timer.valid()) {
            sim_.cancel(member.suspicion_timer);
            member.suspicion_timer = sim::EventId{};
          }
          ++counters_.refutations;
          notify_changed();
        }
        enqueue_update(update);
      }
      break;
    case SwimUpdate::Status::suspect:
      if (member.state == State::alive
              ? update.incarnation >= member.incarnation
              : update.incarnation > member.incarnation) {
        member.incarnation = update.incarnation;
        if (member.state == State::alive) {
          member.state = State::suspect;
          ++counters_.suspicions;
          const std::uint64_t incarnation = member.incarnation;
          const net::ProcessId p = update.member;
          member.suspicion_timer = sim_.schedule_after(
              config_.period *
                  static_cast<std::int64_t>(config_.suspicion_periods),
              [this, p, incarnation] { on_suspicion_timeout(p, incarnation); });
          notify_changed();
        }
        enqueue_update(SwimUpdate{update.member, SwimUpdate::Status::suspect,
                                  member.incarnation});
      }
      break;
    case SwimUpdate::Status::confirm:
      member.state = State::confirmed;
      member.incarnation = std::max(member.incarnation, update.incarnation);
      if (member.suspicion_timer.valid()) {
        sim_.cancel(member.suspicion_timer);
        member.suspicion_timer = sim::EventId{};
      }
      ++counters_.confirms;
      enqueue_update(SwimUpdate{update.member, SwimUpdate::Status::confirm,
                                member.incarnation});
      notify_changed();
      break;
  }
}

void SwimDetector::merge_updates(const SwimUpdates& updates) {
  for (const auto& update : updates) apply_update(update);
}

void SwimDetector::enqueue_update(const SwimUpdate& update) {
  // One current update per member (the override rules already picked the
  // winner); a fresh update restarts the dissemination budget.
  dissemination_[update.member] = Dissemination{update, update_budget_};
}

SwimUpdates SwimDetector::take_piggyback() {
  SwimUpdates out;
  if (dissemination_.empty()) return out;
  // Least-transmitted entries first (fresh news spreads fastest); ties
  // break by member id, so selection is deterministic.
  std::vector<std::map<net::ProcessId, Dissemination>::iterator> entries;
  entries.reserve(dissemination_.size());
  for (auto it = dissemination_.begin(); it != dissemination_.end(); ++it) {
    entries.push_back(it);
  }
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a->second.remaining != b->second.remaining) {
      return a->second.remaining > b->second.remaining;
    }
    return a->first < b->first;
  });
  const std::size_t take = std::min(kPiggybackLimit, entries.size());
  out.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    out.push_back(entries[i]->second.update);
    if (--entries[i]->second.remaining == 0) {
      dissemination_.erase(entries[i]);
    }
  }
  counters_.updates_piggybacked += out.size();
  return out;
}

bool SwimDetector::suspects(net::ProcessId p) const {
  const auto it = members_.find(p);
  return it != members_.end() && it->second.state != State::alive;
}

bool SwimDetector::confirmed(net::ProcessId p) const {
  const auto it = members_.find(p);
  return it != members_.end() && it->second.state == State::confirmed;
}

std::uint64_t SwimDetector::incarnation_of(net::ProcessId p) const {
  const auto it = members_.find(p);
  SVS_REQUIRE(it != members_.end(), "unknown peer");
  return it->second.incarnation;
}

}  // namespace svs::fd
