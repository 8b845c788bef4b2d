#include "core/membership.hpp"

#include <algorithm>

namespace svs::core {

MembershipPolicy::MembershipPolicy(sim::Simulator& simulator, Node& node,
                                   fd::FailureDetector& detector,
                                   Config config)
    : sim_(simulator), node_(node), fd_(detector), config_(config) {
  fd_.subscribe([this] { reevaluate_suspicions(); });
  node_.subscribe_install([this](const View&) { reevaluate_suspicions(); });
}

std::vector<net::ProcessId> MembershipPolicy::current_suspects() const {
  std::vector<net::ProcessId> out;
  for (const auto p : node_.current_view().members()) {
    if (p != node_.id() && fd_.suspects(p)) out.push_back(p);
  }
  return out;
}

bool MembershipPolicy::is_initiator() const {
  // Lowest-ranked unsuspected member initiates.
  for (const auto p : node_.current_view().members()) {
    if (p == node_.id()) return true;
    if (!fd_.suspects(p)) return false;
  }
  return false;
}

void MembershipPolicy::reevaluate_suspicions() {
  if (node_.excluded()) return;
  const auto suspects = current_suspects();
  if (suspects.empty()) {
    if (suspicion_timer_.valid()) {
      sim_.cancel(suspicion_timer_);
      suspicion_timer_ = sim::EventId{};
    }
    return;
  }
  if (suspicion_timer_.valid()) return;  // already armed
  suspicion_timer_ = sim_.schedule_after(config_.suspicion_grace, [this] {
    suspicion_timer_ = sim::EventId{};
    act_on_suspicions();
  });
}

void MembershipPolicy::act_on_suspicions() {
  if (node_.excluded() || node_.blocked()) {
    // A change is already running; re-arm so persisting suspicions are
    // retried once it settles (the install callback also re-evaluates).
    reevaluate_suspicions();
    return;
  }
  const auto suspects = current_suspects();
  if (suspects.empty()) return;
  // Primary-partition guard: when the suspected set is half the view or
  // more, the unsuspected remainder (this node's side) may itself be the
  // partitioned minority — an unreliable detector cannot tell "they all
  // died" from "I am cut off".  Excising a live majority would strand the
  // group: the resulting rump view can lose its alive quorum at the next
  // real crash and block every later view change forever (found by the
  // scenario explorer: asymmetric partition + heartbeat FD + late crash).
  // Only a side that retains a strict majority may act; a true minority
  // waits — either the suspicions heal, or the majority excludes us.
  const std::size_t view_size = node_.current_view().size();
  if (2 * (view_size - suspects.size()) <= view_size) {
    reevaluate_suspicions();  // keep watching; crashes re-trigger the timer
    return;
  }
  if (!is_initiator()) return;  // someone ahead of us will take care of it
  if (node_.request_view_change(suspects)) ++exclusions_triggered_;
}

}  // namespace svs::core
