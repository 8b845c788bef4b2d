// The UDP workloads: four members in four processes over loopback UDP.
//
// The supervising process is member 0 — the primary, the load generator
// and the supervisor.  It forks the three backups before it creates any
// socket; ports, the load start and the final reports travel over pipes,
// so no port is fixed.  Each member runs the stack tools/svs_proc runs
// (UdpTransport in distributed mode, HeartbeatDetector, Node,
// MembershipPolicy) with svs_proc's settings, plus app::KvStore over the
// k-enumeration relation with buffer capacities of 64, driven by
// runtime::RealTimeDriver — or, in the traced run, by a copy of its loop
// that times run_until and pump separately.
//
// A run is: set up (fork, connect, one warm-up put visible at every
// backup) kUdpSetups times, keeping the last; open-loop load; drain until
// every put is visible everywhere (at most kDrainNs); on workloads without
// churn, kProbeChanges back-to-back view changes on the idle group; stop.
#pragma once

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "app/kv_store.hpp"
#include "core/membership.hpp"
#include "core/node.hpp"
#include "fd/heartbeat.hpp"
#include "net/udp_transport.hpp"
#include "obs/relation.hpp"
#include "probe.hpp"
#include "result.hpp"
#include "runtime/real_time.hpp"
#include "schedule.hpp"
#include "wire.hpp"

namespace svs::bench_service {

inline constexpr std::uint32_t kUdpMembers = 4;
inline constexpr int kUdpSetups = 11;
inline constexpr int kProbeChanges = 50;
inline constexpr std::int64_t kProbeGapNs = 10'000'000;
inline constexpr std::int64_t kDrainNs = 5'000'000'000;
inline constexpr std::int64_t kMs = 1'000'000;

/// Pipe frame types.
enum : std::uint8_t {
  kPort = 1,   // member -> supervisor: its UDP port
  kRoster,     // supervisor -> member: every member's port
  kReady,      // member built its stack
  kStart,      // supervisor -> member: load start (now_ns clock)
  kWarm,       // member applied the warm-up put
  kDrained,    // member sees every scheduled put
  kSettled,    // drained, and every delivered message is stable (collected)
  kInstalled,  // member installed a view: [view id, now_ns]
  kStop,       // supervisor -> member: report and exit
  kResult,     // member -> supervisor: its MemberReport
  kError,      // member failed: message
};

/// Inputs shared by every member of a run (children get them by fork).
struct UdpPlan {
  const Workload& workload;
  double seconds = 0.0;
  bool traced = false;
  bool reliable = false;  // EmptyRelation: plain view synchrony, no purging
  Schedule schedule;
  std::vector<std::string> key_names;
};

/// One member's full stack, in this process.
class UdpMember {
 public:
  UdpMember(const UdpPlan& plan, std::uint32_t id)
      : plan_(plan),
        id_(id),
        udp_(sim_, transport_config()),
        wall_start_(now_ns()),
        cpu_start_(process_usage().first),
        pool_start_(metrics::Stats::snapshot()) {
    probe_.traced = plan.traced;
    probe_.sampled_puts = &plan.schedule.sampled();
  }

  UdpMember(const UdpMember&) = delete;
  UdpMember& operator=(const UdpMember&) = delete;

  [[nodiscard]] std::uint16_t port() const {
    return udp_.local_port(net::ProcessId(id_));
  }

  /// Registers the peers and builds the protocol stack, wired as
  /// tools/svs_proc wires it.
  void connect(const std::vector<std::uint16_t>& ports) {
    const net::ProcessId self(id_);
    std::vector<net::ProcessId> members, peers;
    for (std::uint32_t p = 0; p < kUdpMembers; ++p) {
      members.emplace_back(p);
      if (p == id_) continue;
      peers.emplace_back(p);
      udp_.add_peer(net::ProcessId(p), ports.at(p));
    }
    net::Transport* transport = &udp_;
    if (plan_.traced) {
      timed_ = std::make_unique<TimedTransport>(udp_, probe_);
      transport = timed_.get();
    }
    fd::HeartbeatDetector::Config hb;
    hb.interval = sim::Duration::millis(100);
    hb.initial_timeout = sim::Duration::seconds(2.0);
    hb.max_timeout = sim::Duration::seconds(5.0);
    detector_ = std::make_unique<fd::HeartbeatDetector>(sim_, *transport, self,
                                                         peers, hb);
    core::NodeConfig nc;
    nc.relation = plan_.reliable
                      ? obs::RelationPtr(std::make_shared<obs::EmptyRelation>())
                      : obs::RelationPtr(std::make_shared<obs::KEnumRelation>());
    nc.delivery_capacity = 64;
    nc.out_capacity = 64;
    node_ = std::make_unique<core::Node>(sim_, *transport, *detector_, self,
                                         core::View(core::ViewId(0), members),
                                         nc);
    node_->set_control_sink([d = detector_.get()](net::ProcessId from,
                                                  const net::MessagePtr& m) {
      if (m->type() == net::MessageType::heartbeat) d->on_heartbeat(from);
    });
    node_->subscribe_install([this](const core::View& v) {
      installs_.push_back({static_cast<std::int64_t>(v.id().value()), now_ns()});
    });
    // Every peer is alive for the whole run: any suspicion is false.
    detector_->subscribe([this, peers] {
      for (const auto p : peers) {
        const bool now = detector_->suspects(p);
        if (now && !suspected_.contains(p)) ++false_suspicions_;
        if (now) suspected_.insert(p);
        else suspected_.erase(p);
      }
    });
    detector_->start();
    core::MembershipPolicy::Config mc;
    mc.suspicion_grace = sim::Duration::millis(300);
    policy_ = std::make_unique<core::MembershipPolicy>(sim_, *node_, *detector_,
                                                       mc);
    store_ = std::make_unique<app::KvStore>(*node_, app::KvStore::Config{});
    const bool slow = plan_.workload.slow_backup && id_ == kUdpMembers - 1;
    replica_ = std::make_unique<Replica>(
        sim_, *node_, *store_, probe_, slow ? kSlowRate : 0.0,
        [this](std::uint64_t put, std::int64_t at) {
          if (put == kWarmupValue) {
            warm_ = true;
          } else if (vis_.has_value()) {
            vis_->on_apply(put, at);
          }
        });
    replica_->start();
  }

  /// Drives the member until `stop` (polled once per loop iteration)
  /// returns true.
  void run(const std::function<bool()>& stop) {
    const auto counted = [&] {
      ++iterations_;
      return stop();
    };
    if (!plan_.traced) {
      runtime::RealTimeDriver driver(sim_, udp_);
      driver.run(sim::Duration::seconds(24 * 3600.0), counted);
      return;
    }
    // runtime::RealTimeDriver::run with its two halves timed apart.
    constexpr std::int64_t kTickUs = runtime::RealTimeDriver::Config{}.tick_us;
    const std::int64_t start_wall = net::UdpTransport::mono_us();
    const sim::TimePoint start_virtual = sim_.now();
    while (!counted()) {
      const std::int64_t elapsed = net::UdpTransport::mono_us() - start_wall;
      const bool run_timed = probe_.run.timed();
      const std::int64_t t0 = run_timed ? now_ns() : 0;
      sim_.run_until(start_virtual + sim::Duration::micros(elapsed));
      if (run_timed) probe_.run.ns.record(now_ns() - t0);
      std::int64_t wait = kTickUs;
      sim::TimePoint next{};
      if (sim_.next_event_time(next)) {
        wait = std::clamp<std::int64_t>(
            (next - start_virtual).as_micros() - elapsed, 1, wait);
      }
      const bool pump_timed = probe_.pump.timed();
      const std::int64_t t1 = pump_timed ? now_ns() : 0;
      const auto datagrams = udp_.pump(wait);
      if (pump_timed) {
        probe_.pump.ns.record(now_ns() - t1);
        probe_.pump_datagrams.record(static_cast<std::int64_t>(datagrams));
      }
    }
  }

  MemberReport report() {
    MemberReport r;
    r.id = id_;
    if (vis_.has_value()) {
      r.visible = vis_->windows();
      r.invisible = vis_->invisible();
      r.order_errors = vis_->order_errors();
      r.sampled_visible = vis_->sampled_visible();
    }
    r.digest = store_->digest();
    r.install_digests = store_->table().digests_at_install();
    r.excluded = node_->excluded();
    r.view_size = node_->current_view().size();
    r.exclusions = policy_->exclusions_triggered();
    r.false_suspicions = false_suspicions_;
    r.node = node_->stats();
    r.queue = node_->delivery_queue().stats();
    r.lane = udp_.lane_stats();
    r.net = udp_.stats();
    r.pool = metrics::Stats::snapshot() - pool_start_;
    const auto [cpu, rss] = process_usage();
    r.cpu_s = cpu - cpu_start_;
    r.wall_s = static_cast<double>(now_ns() - wall_start_) / 1e9;
    r.maxrss_mb = rss;
    r.sim_events = sim_.executed();
    r.loop_iterations = iterations_;
    r.probe = probe_;
    return r;
  }

  /// View installs since the last call: [view id, now_ns].
  std::vector<std::array<std::int64_t, 2>> take_installs() {
    return std::exchange(installs_, {});
  }

  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] core::Node& node() { return *node_; }
  [[nodiscard]] app::KvStore& store() { return *store_; }
  [[nodiscard]] Probe& probe() { return probe_; }
  /// Backups: start tracking visibility of the schedule's puts, whose due
  /// times count from `origin`.
  void start_load(std::int64_t origin) { vis_.emplace(plan_.schedule, origin); }
  [[nodiscard]] bool drained() const { return vis_.has_value() && vis_->all_visible(); }
  [[nodiscard]] bool warm() const { return warm_; }
  /// Nothing left to consume, and stability gossip collected everything
  /// delivered: every purge debt is known at every member.
  [[nodiscard]] bool settled() const {
    return !node_->has_deliverable() && node_->delivered_retained() == 0;
  }

 private:
  static net::UdpTransport::Config transport_config() {
    // tools/svs_proc's lane settings for real processes on one box.
    net::UdpTransport::Config tc;
    tc.bind_local = true;
    tc.link.window = 64;
    tc.link.rto_base_us = 10'000;
    tc.link.rto_max_us = 250'000;
    tc.link.max_retries = 14;
    return tc;
  }

  const UdpPlan& plan_;
  std::uint32_t id_;
  sim::Simulator sim_;
  net::UdpTransport udp_;
  Probe probe_;
  std::unique_ptr<TimedTransport> timed_;
  std::unique_ptr<fd::HeartbeatDetector> detector_;
  std::unique_ptr<core::Node> node_;
  std::unique_ptr<core::MembershipPolicy> policy_;
  std::unique_ptr<app::KvStore> store_;
  std::unique_ptr<Replica> replica_;
  std::optional<Visibility> vis_;
  std::vector<std::array<std::int64_t, 2>> installs_;
  std::set<net::ProcessId> suspected_;
  std::uint64_t false_suspicions_ = 0;
  std::uint64_t iterations_ = 0;
  bool warm_ = false;
  std::int64_t wall_start_;
  double cpu_start_;
  metrics::Stats pool_start_;
};

/// A forked process: killed and reaped when destroyed unless reaped before.
struct ChildProcess {
  pid_t pid = -1;

  explicit ChildProcess(pid_t p) : pid(p) {}
  ChildProcess(ChildProcess&& other) noexcept : pid(std::exchange(other.pid, -1)) {}
  ChildProcess& operator=(ChildProcess&&) = delete;
  ~ChildProcess() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }
};

/// A child process and this side's channel to it.
struct Forked {
  ChildProcess process;
  std::unique_ptr<Channel> channel;
};

/// Forks a child that talks to this process over a Channel.  The child
/// closes `parent_fds` (this side's ends of earlier children's channels),
/// dies with this process, runs `body(channel)` and exits 0 — or, if body
/// threw, sends kError with the message and exits 1.  This side's two
/// descriptors are appended to `parent_fds`.
template <class Body>
Forked fork_child(Body&& body, std::vector<int>& parent_fds) {
  int down[2], up[2];
  if (::pipe(down) != 0) throw std::runtime_error("pipe failed");
  if (::pipe(up) != 0) {
    ::close(down[0]);
    ::close(down[1]);
    throw std::runtime_error("pipe failed");
  }
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (const int fd : {down[0], down[1], up[0], up[1]}) ::close(fd);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    for (const int fd : parent_fds) ::close(fd);
    ::close(down[1]);
    ::close(up[0]);
    int rc = 0;
    {
      Channel ch(down[0], up[1]);
      try {
        if (::prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 || ::getppid() != parent) {
          throw std::runtime_error("parent process gone");
        }
        body(ch);
      } catch (const std::exception& e) {
        try {
          ch.send(kError, e.what());
        } catch (const std::exception&) {
        }
        rc = 1;
      }
    }
    std::fflush(nullptr);
    ::_exit(rc);
  }
  ::close(down[0]);
  ::close(up[1]);
  parent_fds.insert(parent_fds.end(), {up[0], down[1]});
  return Forked{ChildProcess(pid), std::make_unique<Channel>(up[0], down[1])};
}

/// A backup's whole life, in its forked process.
inline void backup_main(const UdpPlan& plan, std::uint32_t id, Channel& ch) {
  pin_to_cpu(id);
  UdpMember m(plan, id);
  std::uint16_t port = m.port();
  ch.send(kPort, pack(port));
  const auto roster = ch.recv(now_ns() + 10'000 * kMs);
  if (roster.type != kRoster) throw std::runtime_error("expected a roster");
  std::vector<std::uint16_t> ports;
  unpack(roster.body, ports);
  m.connect(ports);
  ch.send(kReady);
  bool warm_sent = false, drained_sent = false, settled_sent = false;
  bool stop = false;
  std::int64_t next_poll = 0;
  m.run([&] {
    const std::int64_t now = now_ns();
    if (now < next_poll) return false;
    next_poll = now + kMs;
    while (auto f = ch.next()) {
      if (f->type == kStart) {
        std::int64_t origin = 0;
        unpack(f->body, origin);
        m.start_load(origin);
      } else if (f->type == kStop) {
        stop = true;
      }
    }
    if (!warm_sent && m.warm()) {
      ch.send(kWarm);
      warm_sent = true;
    }
    if (!drained_sent && m.drained()) {
      ch.send(kDrained);
      drained_sent = true;
    }
    if (drained_sent && !settled_sent && m.settled()) {
      ch.send(kSettled);
      settled_sent = true;
    }
    for (auto install : m.take_installs()) ch.send(kInstalled, pack(install));
    return stop;
  });
  MemberReport report = m.report();
  ch.send(kResult, pack(report));
}

/// One deployment: three forked backups plus this process as member 0.
class UdpDeployment {
 public:
  explicit UdpDeployment(const UdpPlan& plan) : plan_(plan) {
    for (std::uint32_t id = 1; id < kUdpMembers; ++id) spawn(id);
    self_ = std::make_unique<UdpMember>(plan_, 0);
    std::vector<std::uint16_t> ports(kUdpMembers);
    ports[0] = self_->port();
    const std::int64_t deadline = now_ns() + 10'000 * kMs;
    for (auto& c : children_) unpack(expect(c, kPort, deadline).body, ports[c.id]);
    for (auto& c : children_) c.channel->send(kRoster, pack(ports));
    self_->connect(ports);
    for (auto& c : children_) expect(c, kReady, deadline);
  }

  UdpDeployment(const UdpDeployment&) = delete;
  UdpDeployment& operator=(const UdpDeployment&) = delete;

  /// One put every backup must apply before the group counts as set up.
  void warm_up() {
    if (!self_->store().put("warmup", kWarmupValue)) {
      throw std::runtime_error("member 0 is not the primary");
    }
    deadline_ = now_ns() + 10'000 * kMs;
    drive([&](std::int64_t) {
      return std::all_of(children_.begin(), children_.end(),
                         [](const Child& c) { return c.warm; });
    });
    if (!failures_.empty()) throw std::runtime_error(failures_.front());
  }

  /// Stops the backups and discards their reports (throwaway set-ups).
  void stop() {
    collect();
    if (!failures_.empty()) throw std::runtime_error(failures_.front());
  }

  /// Load, drain, idle view changes, stop: fills `out`.
  void measure(RunResult& out) {
    const auto& schedule = plan_.schedule;
    const auto load_ns = static_cast<std::int64_t>(plan_.seconds * 1e9);
    origin_ = now_ns() + 20 * kMs;
    out.origin_ns = origin_;
    out.load_s = plan_.seconds;
    for (auto& c : children_) c.channel->send(kStart, pack(origin_));
    deadline_ = origin_ + load_ns + kDrainNs + 30'000 * kMs;
    schedule_at(origin_, [this] { generate(); });
    if (plan_.workload.churn) schedule_at(origin_ + kChurnEveryNs, [this] { churn(); });

    drive([&](std::int64_t now) {
      const bool drained = std::all_of(children_.begin(), children_.end(),
                                       [](const Child& c) { return c.drained; });
      return next_put_ == schedule.size() &&
             (drained || now > origin_ + load_ns + kDrainNs);
    });

    if (!plan_.workload.churn && !plan_.reliable && failures_.empty()) {
      probe_view_changes();
    }
    for (auto& r : collect()) out.members[r.id] = std::move(r);
    out.members[0] = self_->report();
    out.attempted = schedule.size();
    out.refused = refused_;
    out.blocked_s = static_cast<double>(blocked_ns_) / 1e9;
    out.generator_late_max_ns = late_max_ns_;
    for (const auto& [view, requested] : requests_) {
      const auto& at = installs_[view];
      if (std::count(at.begin(), at.end(), 0) != 0) {
        failures_.push_back("view " + std::to_string(view) +
                            " was not installed at every member");
        continue;
      }
      const auto [lo, hi] = std::minmax_element(at.begin(), at.end());
      out.view_change_ms.push_back(static_cast<double>(*hi - requested) / kMs);
      out.install_spread_ms.push_back(static_cast<double>(*hi - *lo) / kMs);
    }
    out.failures.insert(out.failures.end(), failures_.begin(), failures_.end());
  }

 private:
  struct Child {
    std::uint32_t id = 0;
    ChildProcess process;
    std::unique_ptr<Channel> channel;
    bool warm = false;
    bool drained = false;
    bool settled = false;
    std::optional<MemberReport> report{};
  };

  void spawn(std::uint32_t id) {
    auto child = fork_child([&](Channel& ch) { backup_main(plan_, id, ch); },
                            parent_fds_);
    children_.push_back(
        Child{id, std::move(child.process), std::move(child.channel)});
  }

  Channel::Frame expect(Child& c, std::uint8_t type, std::int64_t deadline) {
    auto f = c.channel->recv(deadline);
    if (f.type == kError) {
      throw std::runtime_error("member " + std::to_string(c.id) + ": " + f.body);
    }
    if (f.type != type) {
      throw std::runtime_error("member " + std::to_string(c.id) +
                               ": unexpected frame");
    }
    return f;
  }

  void on_frame(Child& c, Channel::Frame& f) {
    switch (f.type) {
      case kWarm:
        c.warm = true;
        break;
      case kDrained:
        c.drained = true;
        break;
      case kSettled:
        c.settled = true;
        break;
      case kInstalled: {
        std::array<std::int64_t, 2> install{};
        unpack(f.body, install);
        note_install(c.id, install);
        break;
      }
      case kResult: {
        MemberReport r;
        unpack(f.body, r);
        c.report = std::move(r);
        break;
      }
      case kError:
        failures_.push_back("member " + std::to_string(c.id) + ": " + f.body);
        break;
      default:
        failures_.push_back("member " + std::to_string(c.id) +
                            ": unexpected frame");
    }
  }

  void note_install(std::uint32_t member, const std::array<std::int64_t, 2>& i) {
    auto& at = installs_[static_cast<std::uint64_t>(i[0])];
    at.resize(kUdpMembers, 0);
    at[member] = i[1];
  }

  void poll() {
    for (auto& c : children_) {
      while (auto f = c.channel->next()) on_frame(c, *f);
    }
    for (const auto& install : self_->take_installs()) note_install(0, install);
  }

  /// Runs member 0's loop until `done(now)`; every millisecond it reads the
  /// backups' frames and enforces the deadline.  Every iteration it tracks
  /// how long the primary's outbox was non-empty during the load.
  void drive(const std::function<bool(std::int64_t)>& done) {
    std::int64_t next_poll = 0;
    self_->run([&] {
      const std::int64_t now = now_ns();
      track_outbox(now);
      if (now < next_poll) return false;
      next_poll = now + kMs;
      poll();
      if (now > deadline_) {
        failures_.push_back("run exceeded its deadline");
        return true;
      }
      return done(now);
    });
  }

  void track_outbox(std::int64_t now) {
    const std::int64_t end = origin_ + static_cast<std::int64_t>(plan_.seconds * 1e9);
    if (outbox_was_full_ && origin_ != 0) {
      const std::int64_t lo = std::max(last_track_, origin_);
      const std::int64_t hi = std::min(now, end);
      if (hi > lo) blocked_ns_ += hi - lo;
    }
    last_track_ = now;
    outbox_was_full_ = self_->store().outbox_depth() > 0;
  }

  /// Runs `action` on member 0's simulator once now_ns() reaches `at`.
  void schedule_at(std::int64_t at, std::function<void()> action) {
    const std::int64_t delay_ns = at - now_ns();
    if (delay_ns <= 0) {
      action();
      return;
    }
    self_->sim().schedule_after(
        sim::Duration::micros(std::max<std::int64_t>(1, (delay_ns + 999) / 1000)),
        [this, at, action = std::move(action)]() mutable {
          schedule_at(at, std::move(action));
        });
  }

  /// Makes every put that is due, then sleeps until the next one.
  void generate() {
    const auto& schedule = plan_.schedule;
    while (next_put_ < schedule.size() &&
           origin_ + schedule.due(next_put_) <= now_ns()) {
      make_put(next_put_++);
    }
    if (next_put_ < schedule.size()) {
      schedule_at(origin_ + schedule.due(next_put_), [this] { generate(); });
    }
  }

  void make_put(std::uint64_t i) {
    auto& probe = self_->probe();
    auto& store = self_->store();
    const std::int64_t due = origin_ + plan_.schedule.due(i);
    const std::int64_t t0 = now_ns();
    late_max_ns_ = std::max(late_max_ns_, t0 - due);
    const bool stamp = probe.sampled(i);
    if (stamp) {
      probe.stamp_primary(i, 0, due);
      probe.stamp_primary(i, 1, t0);
    }
    const bool timed = probe.traced && probe.put.timed();
    if (!store.put(plan_.key_names[plan_.schedule.key(i)], i)) ++refused_;
    if (!timed && !stamp) return;
    const std::int64_t t1 = now_ns();
    if (timed) {
      probe.put.ns.record(t1 - t0);
      probe.outbox_depth.record(static_cast<std::int64_t>(store.outbox_depth()));
    }
    if (stamp) probe.stamp_primary(i, 2, t1);
  }

  void churn() {
    const std::int64_t end = origin_ + static_cast<std::int64_t>(plan_.seconds * 1e9);
    request_view_change();
    const std::int64_t next = now_ns() + kChurnEveryNs;
    if (next < end) schedule_at(next, [this] { churn(); });
  }

  bool request_view_change() {
    auto& node = self_->node();
    const std::int64_t at = now_ns();
    if (!node.request_view_change({})) return false;
    const std::uint64_t next_view = node.current_view().id().value() + 1;
    requests_[next_view] = at;
    return true;
  }

  [[nodiscard]] bool installed_everywhere(std::uint64_t view) {
    const auto it = installs_.find(view);
    return it != installs_.end() &&
           std::count(it->second.begin(), it->second.end(), 0) == 0;
  }

  /// Back-to-back view changes on the idle group, each requested once the
  /// previous one is installed at every member.  The first waits until the
  /// group has settled: a change while purge debts are still in flight
  /// makes the flush re-deliver puts whose covers were already applied
  /// (see README.md, "Known library bug").
  void probe_view_changes() {
    deadline_ = now_ns() + 30'000 * kMs;
    drive([&](std::int64_t) {
      return self_->settled() &&
             std::all_of(children_.begin(), children_.end(),
                         [](const Child& c) { return c.settled; });
    });
    int done = 0;
    std::optional<std::uint64_t> pending;
    std::int64_t next_request = 0;
    drive([&](std::int64_t now) {
      if (pending.has_value()) {
        if (!installed_everywhere(*pending)) return false;
        pending.reset();
        if (++done == kProbeChanges) return true;
        // Let every member finish applying the view before the next one.
        next_request = now + kProbeGapNs;
      }
      if (now >= next_request && request_view_change()) {
        pending = requests_.rbegin()->first;
      }
      return false;
    });
  }

  /// Sends STOP, gathers every backup's report and reaps the processes.
  std::vector<MemberReport> collect() {
    for (auto& c : children_) {
      try {
        c.channel->send(kStop);
      } catch (const std::exception& e) {
        failures_.push_back("member " + std::to_string(c.id) + ": " + e.what());
      }
    }
    const std::int64_t deadline = now_ns() + 30'000 * kMs;
    std::vector<MemberReport> reports;
    for (auto& c : children_) {
      try {
        while (!c.report.has_value()) {
          auto f = c.channel->recv(deadline);
          on_frame(c, f);
          if (f.type == kError) break;
        }
      } catch (const std::exception& e) {
        failures_.push_back("member " + std::to_string(c.id) + ": " + e.what());
      }
      if (c.report.has_value()) reports.push_back(std::move(*c.report));
      reap(c, deadline);
    }
    for (const auto& install : self_->take_installs()) note_install(0, install);
    return reports;
  }

  void reap(Child& c, std::int64_t deadline) {
    int status = 0;
    const pid_t pid = std::exchange(c.process.pid, -1);
    while (::waitpid(pid, &status, WNOHANG) == 0) {
      if (now_ns() > deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        failures_.push_back("member " + std::to_string(c.id) +
                            " outlived its deadline and was killed");
        break;
      }
      ::usleep(1000);
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
      failures_.push_back("member " + std::to_string(c.id) + " exited " +
                          std::to_string(WEXITSTATUS(status)));
    }
  }

  const UdpPlan& plan_;
  std::vector<Child> children_;
  std::vector<int> parent_fds_;
  std::unique_ptr<UdpMember> self_;
  std::vector<std::string> failures_;
  std::int64_t origin_ = 0;
  std::int64_t deadline_ = 0;
  std::size_t next_put_ = 0;
  std::uint64_t refused_ = 0;
  std::int64_t late_max_ns_ = 0;
  std::int64_t blocked_ns_ = 0;
  std::int64_t last_track_ = 0;
  bool outbox_was_full_ = false;
  std::map<std::uint64_t, std::int64_t> requests_;             // view -> asked
  std::map<std::uint64_t, std::vector<std::int64_t>> installs_;  // view -> at
};

inline RunResult run_udp(const Workload& w, std::uint64_t seed, double seconds,
                         bool traced, bool reliable) {
  UdpPlan plan{w, seconds, traced, reliable,
               Schedule(seed, w.keys, w.fresh_keys), key_names(w.keys)};
  plan.schedule.generate(w.rate, seconds);
  pin_to_cpu(0);
  RunResult out;
  out.members.resize(kUdpMembers);
  for (int s = 0; s < kUdpSetups; ++s) {
    const std::int64_t t0 = now_ns();
    UdpDeployment deployment(plan);
    deployment.warm_up();
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (s + 1 < kUdpSetups) {
      deployment.stop();
      continue;
    }
    deployment.measure(out);
  }
  for (const auto& m : out.members) out.wire_bytes += m.lane.datagram_bytes_sent;
  const auto invisible = check_members(
      out, w.slow_backup ? std::optional(kUdpMembers - 1) : std::nullopt, reliable);
  // Puts per second visible everywhere, per window of due time.
  const auto load_ns = static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::uint64_t> done(
      static_cast<std::size_t>((load_ns + kWindowNs - 1) / kWindowNs), 0);
  for (std::uint32_t i = 0; i < plan.schedule.size(); ++i) {
    if (!invisible.contains(i)) ++done[static_cast<std::size_t>(plan.schedule.due(i) / kWindowNs)];
  }
  for (std::size_t w = 0; w < done.size(); ++w) {
    const auto len = std::min<std::int64_t>(
        kWindowNs, load_ns - static_cast<std::int64_t>(w) * kWindowNs);
    out.window_rate.push_back(static_cast<double>(done[w]) * 1e9 /
                              static_cast<double>(len));
  }
  return out;
}

}  // namespace svs::bench_service
