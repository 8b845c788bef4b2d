// kv_flood_sim: five members in one process on the simulated fabric,
// closed loop — one put, then Simulator::run() until the group is quiet.
//
// Network, OracleDetector, Node and MembershipPolicy are wired by hand the
// way core::Group wires them (library defaults, k-enumeration relation,
// buffer capacities of 64), so the traced run can put TimedTransport
// between the nodes and the fabric.  No kernel and no waiting: every
// microsecond is protocol, simulator or allocator work.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/kv_store.hpp"
#include "core/membership.hpp"
#include "core/node.hpp"
#include "fd/oracle.hpp"
#include "net/network.hpp"
#include "obs/relation.hpp"
#include "probe.hpp"
#include "result.hpp"
#include "schedule.hpp"

namespace svs::bench_service {

inline constexpr std::uint32_t kSimMembers = 5;
inline constexpr int kSimSetups = 51;
inline constexpr int kSimProbeChanges = 50;

class SimGroup {
 public:
  /// `sampled` flags the puts the traced run samples, by put index.
  SimGroup(const std::vector<bool>& sampled, bool traced)
      : net_(sim_, net::Network::Config{}), backups_(kSimMembers - 1) {
    probe_.traced = traced;
    probe_.sampled_puts = &sampled;
    net::Transport* transport = &net_;
    if (traced) {
      timed_ = std::make_unique<TimedTransport>(net_, probe_);
      transport = timed_.get();
    }
    std::vector<net::ProcessId> members;
    for (std::uint32_t i = 0; i < kSimMembers; ++i) members.emplace_back(i);
    core::NodeConfig nc;
    nc.relation = std::make_shared<obs::KEnumRelation>();
    nc.delivery_capacity = 64;
    nc.out_capacity = 64;
    for (std::uint32_t i = 0; i < kSimMembers; ++i) {
      detectors_.push_back(std::make_unique<fd::OracleDetector>(
          sim_, *transport, members[i], sim::Duration::millis(30)));
    }
    for (std::uint32_t i = 0; i < kSimMembers; ++i) {
      nodes_.push_back(std::make_unique<core::Node>(
          sim_, *transport, *detectors_[i], members[i],
          core::View(core::ViewId(0), members), nc));
      nodes_[i]->subscribe_install([this, i](const core::View& v) {
        auto& at = installs_[v.id().value()];
        at.resize(kSimMembers, 0);
        at[i] = now_ns();
      });
    }
    for (std::uint32_t i = 0; i < kSimMembers; ++i) {
      policies_.push_back(std::make_unique<core::MembershipPolicy>(
          sim_, *nodes_[i], *detectors_[i], core::MembershipPolicy::Config{}));
      stores_.push_back(
          std::make_unique<app::KvStore>(*nodes_[i], app::KvStore::Config{}));
      replicas_.push_back(std::make_unique<Replica>(
          sim_, *nodes_[i], *stores_[i], probe_, 0.0,
          [this, i](std::uint64_t put, std::int64_t at) {
            if (put == kWarmupValue) {
              ++warm_;
            } else if (i != 0) {
              on_apply(backups_[i - 1], put, at);
            }
          }));
    }
    for (auto& r : replicas_) r->start();
    sim_.run();
  }

  SimGroup(const SimGroup&) = delete;
  SimGroup& operator=(const SimGroup&) = delete;

  /// One put every backup must apply before the group counts as set up.
  void warm_up() {
    if (!stores_[0]->put("warmup", kWarmupValue)) {
      throw std::runtime_error("member 0 is not the primary");
    }
    sim_.run();
    if (warm_ != kSimMembers) throw std::runtime_error("warm-up put was lost");
  }

  /// The closed loop for `seconds`, then idle view changes; fills `out`.
  /// Put i writes key `stream.next().key` and is due when it is made;
  /// `sampled` receives the put's sample flag first.
  void measure(PutStream& stream, std::vector<bool>& sampled,
               const std::vector<std::string>& keys, double seconds,
               RunResult& out) {
    const auto [cpu0, rss0] = process_usage();
    const auto pool0 = metrics::Stats::snapshot();
    const auto events0 = sim_.executed();
    const auto bytes0 = net_.stats().bytes_sent;
    auto& store = *stores_[0];
    const auto load_ns = static_cast<std::int64_t>(seconds * 1e9);
    start_ = now_ns();
    out.origin_ns = start_;
    std::vector<std::uint64_t> per_window(
        static_cast<std::size_t>((load_ns + kWindowNs - 1) / kWindowNs), 0);
    std::int64_t blocked_ns = 0;
    std::uint64_t i = 0;
    std::size_t window = 0;
    pin_to_cpu(window);
    for (std::int64_t t0 = start_; t0 < start_ + load_ns; t0 = now_ns(), ++i) {
      if (static_cast<std::size_t>((t0 - start_) / kWindowNs) != window) {
        pin_to_cpu(++window);
      }
      const auto put = stream.next();
      sampled.push_back(put.sampled);
      due_ = t0;
      if (probe_.sampled(i)) {
        probe_.stamp_primary(i, 0, t0);
        probe_.stamp_primary(i, 1, t0);
      }
      const bool put_timed = probe_.traced && probe_.put.timed();
      if (!store.put(keys[put.key], i)) ++out.refused;
      const bool blocked = store.outbox_depth() > 0;
      const bool run_timed = probe_.traced && probe_.run.timed();
      if (!put_timed && !run_timed && !blocked && !probe_.sampled(i)) {
        sim_.run();
      } else {
        const std::int64_t t1 = now_ns();
        if (put_timed) {
          probe_.put.ns.record(t1 - t0);
          probe_.outbox_depth.record(static_cast<std::int64_t>(store.outbox_depth()));
        }
        if (probe_.sampled(i)) probe_.stamp_primary(i, 2, t1);
        sim_.run();
        const std::int64_t t2 = now_ns();
        if (run_timed) probe_.run.ns.record(t2 - t1);
        if (blocked) blocked_ns += t2 - t1;
      }
      const bool everywhere = std::all_of(
          backups_.begin(), backups_.end(),
          [&](const Backup& b) { return b.applied == i + 1; });
      if (!everywhere) {
        out.failed = 1;
        out.failures.push_back("put " + std::to_string(i) +
                               " was not applied at every backup");
        ++i;
        break;
      }
      ++per_window[window];
    }
    for (std::size_t w = 0; w < per_window.size(); ++w) {
      const auto len = std::min<std::int64_t>(
          kWindowNs, load_ns - static_cast<std::int64_t>(w) * kWindowNs);
      out.window_rate.push_back(static_cast<double>(per_window[w]) * 1e9 /
                                static_cast<double>(len));
    }
    out.load_s = seconds;
    out.attempted = i;
    out.blocked_s = static_cast<double>(blocked_ns) / 1e9;
    out.wire_bytes = net_.stats().bytes_sent - bytes0;
    const auto [cpu1, rss1] = process_usage();
    const auto pool = metrics::Stats::snapshot() - pool0;
    const auto events = sim_.executed() - events0;

    for (int k = 0; k < kSimProbeChanges; ++k) {
      pin_to_cpu(static_cast<std::size_t>(k));
      const std::uint64_t view = nodes_[0]->current_view().id().value() + 1;
      const std::int64_t at = now_ns();
      if (!nodes_[0]->request_view_change({})) {
        out.failures.push_back("view change refused on the idle group");
        break;
      }
      sim_.run();
      const auto& installed = installs_[view];
      if (installed.size() != kSimMembers ||
          std::count(installed.begin(), installed.end(), 0) != 0) {
        out.failures.push_back("view " + std::to_string(view) +
                               " was not installed at every member");
        break;
      }
      const auto [lo, hi] = std::minmax_element(installed.begin(), installed.end());
      out.view_change_ms.push_back(static_cast<double>(*hi - at) / 1e6);
      out.install_spread_ms.push_back(static_cast<double>(*hi - *lo) / 1e6);
    }

    for (std::uint32_t i = 0; i < kSimMembers; ++i) {
      MemberReport r;
      r.id = i;
      const auto& node = *nodes_[i];
      if (i != 0) {
        const auto& b = backups_[i - 1];
        r.visible = b.windows;
        r.order_errors = b.order_errors;
        r.sampled_visible = b.sampled_visible;
      }
      r.digest = stores_[i]->digest();
      r.install_digests = stores_[i]->table().digests_at_install();
      r.excluded = node.excluded();
      r.view_size = node.current_view().size();
      r.exclusions = policies_[i]->exclusions_triggered();
      r.node = node.stats();
      r.queue = node.delivery_queue().stats();
      out.members.push_back(std::move(r));
    }
    // Process-wide figures, over the load only, on member 0.
    auto& m0 = out.members[0];
    m0.net = net_.stats();
    m0.pool = pool;
    m0.cpu_s = cpu1 - cpu0;
    m0.wall_s = out.load_s;
    m0.maxrss_mb = rss1;
    m0.sim_events = events;
    m0.probe = probe_;
  }

 private:
  /// One backup's bookkeeping.  Put i must be applied there before put i+1
  /// is made, so no per-put history is kept: memory does not grow with
  /// throughput.
  struct Backup {
    std::uint64_t applied = 0;  // puts applied = the next put expected
    std::uint64_t order_errors = 0;
    std::vector<Histogram> windows;  // visible latency by window of due time
    std::map<std::uint64_t, std::int64_t> sampled_visible;
  };

  void on_apply(Backup& b, std::uint64_t put, std::int64_t at) {
    if (put != b.applied) {
      ++b.order_errors;
      return;
    }
    ++b.applied;
    const auto w = static_cast<std::size_t>((due_ - start_) / kWindowNs);
    if (w >= b.windows.size()) b.windows.resize(w + 1);
    b.windows[w].record(at - due_);
    if (probe_.sampled(put)) b.sampled_visible[put] = at;
  }

  sim::Simulator sim_;
  net::Network net_;
  Probe probe_;
  std::unique_ptr<TimedTransport> timed_;
  std::vector<std::unique_ptr<fd::OracleDetector>> detectors_;
  std::vector<std::unique_ptr<core::Node>> nodes_;
  std::vector<std::unique_ptr<core::MembershipPolicy>> policies_;
  std::vector<std::unique_ptr<app::KvStore>> stores_;
  std::vector<Backup> backups_;  // members 1..n-1
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::map<std::uint64_t, std::vector<std::int64_t>> installs_;  // view -> at
  std::uint32_t warm_ = 0;
  std::int64_t start_ = 0;  // load start
  std::int64_t due_ = 0;    // the put in flight was made at
};

inline RunResult run_sim(const Workload& w, std::uint64_t seed, double seconds,
                         bool traced) {
  const auto keys = key_names(w.keys);
  RunResult out;
  out.closed_loop = true;
  PutStream stream(seed, w.keys, w.fresh_keys);
  std::vector<bool> sampled;
  for (int s = 0; s < kSimSetups; ++s) {
    pin_to_cpu(static_cast<std::size_t>(s));
    const std::int64_t t0 = now_ns();
    auto group = std::make_unique<SimGroup>(sampled, traced);
    group->warm_up();
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (s + 1 == kSimSetups) group->measure(stream, sampled, keys, seconds, out);
  }
  check_members(out, std::nullopt, false);
  return out;
}

}  // namespace svs::bench_service
