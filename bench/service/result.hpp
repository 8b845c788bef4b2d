// What one run produces: a report per member (shipped over a pipe from
// forked members) and the run-level measurements the supervisor takes.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/delivery_queue.hpp"
#include "core/node.hpp"
#include "histogram.hpp"
#include "metrics/stats.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "probe.hpp"

namespace svs::bench_service {

/// Counters, checks and samples of one group member.  In the simulated
/// workload all members share one process: process-wide figures (CPU,
/// memory, allocator pool, transport counters) sit on member 0 only.
struct MemberReport {
  std::uint32_t id = 0;
  // Backups: visible latency (ns) per kWindowNs window of due time.
  std::vector<Histogram> visible;
  std::vector<std::uint32_t> invisible;
  std::uint64_t order_errors = 0;
  std::map<std::uint64_t, std::int64_t> sampled_visible;
  // Replica state and membership health.
  std::uint64_t digest = 0;
  std::map<std::uint64_t, std::uint64_t> install_digests;
  bool excluded = false;
  std::uint64_t view_size = 0;
  std::uint64_t exclusions = 0;
  std::uint64_t false_suspicions = 0;
  // Library counters.
  core::NodeStats node{};
  core::DeliveryQueue::Stats queue{};
  net::UdpLaneStats lane{};
  net::NetworkStats net{};
  metrics::Stats pool{};
  // Process figures.
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double maxrss_mb = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t loop_iterations = 0;
  Probe probe;

  template <class A>
  void io(A& ar) {
    ar(id, visible, invisible, order_errors, sampled_visible, digest,
       install_digests, excluded, view_size, exclusions, false_suspicions,
       node, queue, lane, net, pool, cpu_s, wall_s, maxrss_mb, sim_events,
       loop_iterations, probe);
  }
};

/// Everything the reports are computed from.
struct RunResult {
  std::vector<double> setup_s;        // one per set-up
  double load_s = 0.0;                // the load window
  bool closed_loop = false;           // the sim: next put once the last is applied
  std::int64_t origin_ns = 0;         // load start: trace time zero
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;           // refused, or invisible somewhere at the end
  std::uint64_t refused = 0;
  std::vector<double> window_rate;    // puts/s visible everywhere, per window
  std::vector<MemberReport> members;  // index = member id; 0 is the primary
  std::vector<std::uint32_t> fast_backups;  // all but the rate-limited one
  std::vector<std::uint32_t> slow_backups;  // the rate-limited one, else all
  std::vector<double> view_change_ms;     // request -> installed everywhere
  std::vector<double> install_spread_ms;  // first -> last install
  double blocked_s = 0.0;             // load time with a non-empty outbox
  std::int64_t generator_late_max_ns = 0;
  std::uint64_t wire_bytes = 0;
  std::vector<std::string> failures;  // failed correctness checks

  template <class A>
  void io(A& ar) {
    ar(setup_s, load_s, closed_loop, origin_ns, attempted, failed, refused,
       window_rate, members, fast_backups, slow_backups, view_change_ms,
       install_spread_ms, blocked_s, generator_late_max_ns, wire_bytes, failures);
  }
};

/// Correctness checks over the members' reports; sets `failed` and the
/// backup groups, and returns the puts invisible at some backup.  `slow`
/// is the rate-limited backup, if any.  With the reliable variant the slow
/// backup cannot keep up, so undrained puts and diverging final states are
/// expected and not checked.
inline std::set<std::uint32_t> check_members(RunResult& out,
                                             std::optional<std::uint32_t> slow,
                                             bool reliable) {
  auto fail = [&](std::string what) { out.failures.push_back(std::move(what)); };
  const auto n = static_cast<std::uint32_t>(out.members.size());
  std::set<std::uint32_t> invisible;
  bool unreported = false;
  for (std::uint32_t id = 0; id < n; ++id) {
    const auto& m = out.members[id];
    const std::string who = "member " + std::to_string(id);
    if (m.id != id) {
      fail(who + " sent no report");
      unreported = true;
      continue;
    }
    if (m.lane.malformed_datagrams != 0) fail(who + " saw malformed datagrams");
    if (m.lane.link_resets != 0) fail(who + " declared a peer dead");
    if (m.false_suspicions != 0) fail(who + " suspected a live peer");
    if (m.excluded || m.view_size != n || m.exclusions != 0) {
      fail(who + " saw a member excluded");
    }
    if (m.install_digests != out.members[0].install_digests) {
      fail(who + " disagrees on the state at a view installation");
    }
    if (id == 0) continue;
    if (id != slow) out.fast_backups.push_back(id);
    if (id == slow || !slow.has_value()) out.slow_backups.push_back(id);
    if (m.visible.empty() && out.attempted != 0) fail(who + " tracked no puts");
    if (m.order_errors != 0) fail(who + " applied puts of a key out of order");
    invisible.insert(m.invisible.begin(), m.invisible.end());
    if (!reliable && m.digest != out.members[0].digest) {
      fail(who + " ends with a different state than the primary");
    }
  }
  // A backup that sent no report shows no put visible there.
  out.failed += unreported ? out.attempted : invisible.size();
  if (out.refused != 0) fail(std::to_string(out.refused) + " puts refused");
  if (!reliable && out.failed != 0) {
    fail(std::to_string(out.failed) + " puts not visible at every backup");
  }
  return invisible;
}

/// CPU seconds and peak RSS (MB) of the calling process.
inline std::pair<double, double> process_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

}  // namespace svs::bench_service
