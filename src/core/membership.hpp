// Membership policy: decides *when* to trigger view changes.
//
// §3.2: "The set of events that may lead to a view change are not relevant
// to the definition of Semantic View Synchrony [...] Examples of possible
// causes [...] are the occurrence of failure suspicions, the lack of
// available buffer space at one or more processes and simply the existence
// of processes that voluntarily want to leave."
//
// This policy acts on failure suspicions only: suspicion-driven exclusion,
// after a grace period, initiated by the lowest-ranked unsuspected member to
// avoid INIT storms (the protocol tolerates concurrent INITs; this is just
// hygiene).  The other causes are left to the application, which calls
// Node::request_view_change itself — to remove a receiver whose buffers
// stay full, or to leave.
#pragma once

#include <vector>

#include "core/node.hpp"
#include "fd/failure_detector.hpp"
#include "sim/simulator.hpp"

namespace svs::core {

class MembershipPolicy {
 public:
  struct Config {
    /// How long a suspicion must persist before acting on it.
    sim::Duration suspicion_grace = sim::Duration::millis(20);
  };

  MembershipPolicy(sim::Simulator& simulator, Node& node,
                   fd::FailureDetector& detector, Config config);

  MembershipPolicy(const MembershipPolicy&) = delete;
  MembershipPolicy& operator=(const MembershipPolicy&) = delete;

  [[nodiscard]] std::uint64_t exclusions_triggered() const {
    return exclusions_triggered_;
  }

 private:
  void reevaluate_suspicions();
  void act_on_suspicions();
  [[nodiscard]] std::vector<net::ProcessId> current_suspects() const;
  [[nodiscard]] bool is_initiator() const;

  sim::Simulator& sim_;
  Node& node_;
  fd::FailureDetector& fd_;
  Config config_;
  sim::EventId suspicion_timer_{};
  std::uint64_t exclusions_triggered_ = 0;
};

}  // namespace svs::core
