#include "consensus/instance.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace svs::consensus {

Instance::Instance(net::Transport& network,
                   const fd::FailureDetector& detector,
                   net::ProcessId self,
                   std::vector<net::ProcessId> participants, InstanceId id,
                   DecideCallback on_decide)
    : net_(network),
      fd_(detector),
      self_(self),
      participants_(std::move(participants)),
      id_(id),
      on_decide_(std::move(on_decide)) {
  SVS_REQUIRE(!participants_.empty(), "consensus needs participants");
  SVS_REQUIRE(on_decide_ != nullptr, "decide callback must be callable");
  bool member = false;
  for (const auto p : participants_) member = member || p == self_;
  SVS_REQUIRE(member, "self must be a participant");
  // No detector subscription of its own: phase-3 progress depends on
  // suspicion changes, and the owning Mux forwards each one through
  // on_suspicion_change() for as long as the instance is open.
}

net::ProcessId Instance::coordinator(Round r) const {
  return participants_[r % participants_.size()];
}

void Instance::send(net::ProcessId to, Phase phase, Round round,
                    const ValuePtr& value, Round ts) {
  ++stats_.messages_sent;
  net_.send(self_, to,
            std::make_shared<ConsensusMessage>(id_, round, phase, value, ts),
            net::Lane::control);
}

void Instance::broadcast(Phase phase, Round round, const ValuePtr& value,
                         Round ts) {
  for (const auto p : participants_) send(p, phase, round, value, ts);
}

void Instance::propose(ValuePtr value) {
  SVS_REQUIRE(value != nullptr, "cannot propose a null value");
  SVS_REQUIRE(!proposed_, "propose() may be called at most once");
  proposed_ = true;
  estimate_ = Estimate{std::move(value), 0};
  enter_round(0);
}

void Instance::enter_round(Round r) {
  round_ = r;
  sent_estimate_ = false;
  answered_ = false;
  ++stats_.rounds_entered;
  advance();
}

void Instance::on_message(net::ProcessId from, const ConsensusMessage& m) {
  SVS_REQUIRE(m.instance() == id_, "message routed to wrong instance");
  if (decided()) return;  // decision already relayed; nothing left to do

  switch (m.phase()) {
    case Phase::estimate:
      estimates_[m.round()][from] = Estimate{m.value(), m.timestamp()};
      break;
    case Phase::propose:
      // Only the legitimate coordinator's proposal counts (defensive; the
      // model is crash-stop, not Byzantine).
      if (from == coordinator(m.round())) {
        proposals_.emplace(m.round(), m.value());
      }
      break;
    case Phase::ack:
      if (self_ == coordinator(m.round())) acks_[m.round()].insert(from);
      break;
    case Phase::nack:
      break;  // progress is driven by this process's own failure detector
    case Phase::decide:
      if (m.value() != nullptr) {
        decide(m.round(), m.value());
      } else if (const auto proposal = proposals_.find(m.round());
                 proposal != proposals_.end()) {
        // Along coordinator(r)'s FIFO link the value is the PROPOSE(r)
        // stored here; without one the DECIDE is ignored, like a PROPOSE
        // from a non-coordinator.
        decide(m.round(), proposal->second);
      }
      return;
  }
  advance();
}

void Instance::advance() {
  if (decided() || !proposed_) return;

  // Loop: answering a proposal moves this process to the next round, whose
  // guards may already be satisfied by buffered messages.
  for (;;) {
    // Phase 1: send this round's estimate to the coordinator.
    if (!sent_estimate_) {
      send(coordinator(round_), Phase::estimate, round_, estimate_.value,
           estimate_.timestamp);
      sent_estimate_ = true;
    }

    // Phase 2 (coordinator): adopt the best estimate of a majority.
    if (self_ == coordinator(round_) && !proposed_in_round_[round_]) {
      const auto& tally = estimates_[round_];
      if (tally.size() >= majority()) {
        const Estimate* best = nullptr;
        for (const auto& [p, est] : tally) {
          if (best == nullptr || est.timestamp > best->timestamp) best = &est;
        }
        SVS_ASSERT(best != nullptr && best->value != nullptr,
                   "majority tally must contain estimates");
        proposed_in_round_[round_] = true;
        broadcast(Phase::propose, round_, best->value, 0);
      }
    }

    // Phase 4 (coordinator, any past round): majority of ACKs decides.
    for (const auto& [r, who] : acks_) {
      if (who.size() >= majority() && proposed_in_round_[r]) {
        decide(r, proposals_.at(r));
        return;
      }
    }

    // Phase 3 (participant): adopt-and-ack, or suspect-and-nack.
    if (!answered_) {
      const auto proposal = proposals_.find(round_);
      if (proposal != proposals_.end()) {
        // ts := round + 1 ensures adopted estimates always outrank initial
        // ones (timestamp 0), which is what the locking argument needs.
        estimate_ = Estimate{proposal->second, round_ + 1};
        send(coordinator(round_), Phase::ack, round_, nullptr, 0);
        answered_ = true;
        round_ += 1;
        sent_estimate_ = false;
        answered_ = false;
        ++stats_.rounds_entered;
        continue;  // evaluate the new round's guards
      }
      if (fd_.suspects(coordinator(round_))) {
        send(coordinator(round_), Phase::nack, round_, nullptr, 0);
        round_ += 1;
        sent_estimate_ = false;
        answered_ = false;
        ++stats_.rounds_entered;
        continue;
      }
    }
    break;  // no guard fired; wait for the next event
  }
}

void Instance::decide(Round round, const ValuePtr& value) {
  if (decided()) return;
  SVS_ASSERT(value != nullptr, "decision value must not be null");
  decision_ = value;
  // Reliable broadcast: whoever decides first makes sure everyone hears.
  // coordinator(round) already sent PROPOSE(round) down each of its links
  // and holds its own proposal, so its links carry DECIDE(round) bare.
  const net::ProcessId c = coordinator(round);
  for (const auto p : participants_) {
    if (p == self_) continue;
    send(p, Phase::decide, round, self_ == c || p == c ? nullptr : value, 0);
  }
  on_decide_(decision_);
}

}  // namespace svs::consensus
