// Whole-run jitter on every link of a group, as sim::FaultPlan entries, for
// the scenario tests that perturb delivery timing through the Transport
// fault hooks (net::PlannedFaultInjector).
#pragma once

#include <cstdint>
#include <limits>

#include "sim/fault_plan.hpp"

namespace svs::test {

/// `plan` plus uniform jitter in [0, magnitude] on every directed link of
/// an n-member group (self-links included), for the whole run.  The jitter
/// specs take the next free ids, so the plan's own faults keep their rng
/// streams.
inline sim::FaultPlan with_link_jitter(sim::FaultPlan plan, std::uint32_t n,
                                       sim::Duration magnitude) {
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < n; ++b) {
      sim::FaultSpec jitter;
      jitter.kind = sim::FaultKind::link_jitter;
      jitter.id = static_cast<std::uint32_t>(plan.faults.size());
      jitter.a = a;
      jitter.b = b;
      jitter.end =
          sim::TimePoint::at_micros(std::numeric_limits<std::int64_t>::max());
      jitter.magnitude = magnitude;
      plan.faults.push_back(jitter);
    }
  }
  return plan;
}

}  // namespace svs::test
