// svs_proc — one SVS process of a real multi-process deployment.
//
// Runs a full protocol stack (Node + heartbeat failure detector +
// membership policy) over net::UdpTransport in distributed mode, driven by
// runtime::RealTimeDriver: virtual-clock timers (heartbeats, grace periods,
// stability gossip) fire at wall pace while real UDP datagrams carry every
// inter-process message.  tools/svs_deploy forks N of these on localhost.
//
// Startup is a tiny introducer flow on the same socket the lane will use:
// process 0 binds the well-known --introducer-port; everyone else binds an
// ephemeral port and sends JOIN(id, port) every 100ms until the introducer
// answers with the full ROSTER (it answers every JOIN once all --n members
// are known, so a lost ROSTER datagram is repaired by the next retry, and a
// late joiner is re-sent the roster mid-run through the stray-datagram
// hook).
//
// The process floods multicasts for --produce-ms of its --duration-ms run,
// then quiesces so every surviving process converges before shutdown.  On
// SIGTERM/SIGINT it stops the driver, flushes a metrics JSON (view
// sequence, delivery history, lane/protocol counters, peak RSS) to
// --metrics and
// exits 0 — so ONLY kill -9 models a crash.  svs_deploy asserts view
// synchrony and per-sender delivery agreement across the survivors'
// metrics files.
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/membership.hpp"
#include "core/node.hpp"
#include "fd/heartbeat.hpp"
#include "net/dgram.hpp"
#include "net/udp_transport.hpp"
#include "obs/relation.hpp"
#include "runtime/real_time.hpp"
#include "sim/simulator.hpp"
#include "workload/consumer.hpp"
#include "workload/item_op.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

struct CliOptions {
  std::uint32_t id = 0;
  std::uint32_t n = 0;
  std::uint16_t introducer_port = 0;
  std::int64_t duration_ms = 8'000;
  std::int64_t produce_ms = -1;  // default: duration / 2
  std::int64_t interval_ms = 5;
  std::uint32_t loss_permille = 0;
  int rcvbuf_bytes = 0;
  std::string metrics;
};

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

bool parse_flag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --id=I --n=N --introducer-port=P --metrics=PATH "
               "[--duration-ms=MS] [--produce-ms=MS] [--interval-ms=MS] "
               "[--loss=PERMILLE] [--rcvbuf=BYTES]\n",
               argv0);
  return 2;
}

bool parse(int argc, char** argv, CliOptions& options) {
  bool have_id = false, have_n = false, have_port = false;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    std::uint64_t u = 0;
    if (parse_flag(argv[i], "--id", &value)) {
      if (!parse_u64(value, u)) return false;
      options.id = static_cast<std::uint32_t>(u);
      have_id = true;
    } else if (parse_flag(argv[i], "--n", &value)) {
      if (!parse_u64(value, u) || u < 1 || u > 64) return false;
      options.n = static_cast<std::uint32_t>(u);
      have_n = true;
    } else if (parse_flag(argv[i], "--introducer-port", &value)) {
      if (!parse_u64(value, u) || u == 0 || u > 65'535) return false;
      options.introducer_port = static_cast<std::uint16_t>(u);
      have_port = true;
    } else if (parse_flag(argv[i], "--duration-ms", &value)) {
      if (!parse_u64(value, u)) return false;
      options.duration_ms = static_cast<std::int64_t>(u);
    } else if (parse_flag(argv[i], "--produce-ms", &value)) {
      if (!parse_u64(value, u)) return false;
      options.produce_ms = static_cast<std::int64_t>(u);
    } else if (parse_flag(argv[i], "--interval-ms", &value)) {
      if (!parse_u64(value, u) || u == 0) return false;
      options.interval_ms = static_cast<std::int64_t>(u);
    } else if (parse_flag(argv[i], "--loss", &value)) {
      if (!parse_u64(value, u) || u > 999) return false;
      options.loss_permille = static_cast<std::uint32_t>(u);
    } else if (parse_flag(argv[i], "--rcvbuf", &value)) {
      if (!parse_u64(value, u)) return false;
      options.rcvbuf_bytes = static_cast<int>(u);
    } else if (parse_flag(argv[i], "--metrics", &value)) {
      options.metrics = value;
    } else {
      return false;
    }
  }
  if (options.produce_ms < 0) options.produce_ms = options.duration_ms / 2;
  return have_id && have_n && have_port && !options.metrics.empty() &&
         options.id < options.n;
}

std::string describe(const svs::core::Delivery& delivery) {
  std::ostringstream os;
  if (const auto* data =
          std::get_if<svs::core::DataDelivery>(&delivery)) {
    const auto& m = *data->message;
    os << "D " << m.sender() << "#" << m.seq();
    if (const auto* op = dynamic_cast<const svs::workload::ItemOp*>(
            m.payload().get())) {
      os << " item=" << op->item() << " val=" << op->value();
    }
  } else if (const auto* view =
                 std::get_if<svs::core::ViewDelivery>(&delivery)) {
    os << "V " << view->view;
  } else {
    os << "X "
       << std::get<svs::core::ExclusionDelivery>(delivery).last_view;
  }
  return os.str();
}

void json_string_array(std::ostream& os, const char* key,
                       const std::vector<std::string>& values) {
  os << "  \"" << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    // The describe() vocabulary has no quotes or backslashes; escape them
    // anyway so the file stays valid JSON whatever ends up in a view name.
    os << (i == 0 ? "" : ", ") << '"';
    for (const char c : values[i]) {
      if (c == '"' || c == '\\') os << '\\';
      os << c;
    }
    os << '"';
  }
  os << "]";
}

struct Metrics {
  const CliOptions* options = nullptr;
  std::string exit_reason = "duration";
  std::uint64_t produced = 0;
  std::vector<std::string> views;
  std::vector<std::string> history;
  svs::net::UdpLaneStats lane;
  svs::net::NetworkStats net;
  svs::core::NodeStats node;
};

/// Peak resident set size of this process, in MB (Linux reports KB).
double peak_rss_mb() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Atomic flush: write to a temp file, rename into place, so svs_deploy
/// never reads a half-written report (a kill -9 victim leaves either
/// nothing or a stale temp behind, both of which read as "crashed").
bool write_metrics(const Metrics& m) {
  const std::string tmp = m.options->metrics + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) return false;
    os << "{\n";
    os << "  \"id\": " << m.options->id << ",\n";
    os << "  \"n\": " << m.options->n << ",\n";
    os << "  \"exit_reason\": \"" << m.exit_reason << "\",\n";
    os << "  \"produced\": " << m.produced << ",\n";
    json_string_array(os, "views", m.views);
    os << ",\n";
    json_string_array(os, "history", m.history);
    os << ",\n";
    os << "  \"multicasts\": " << m.node.multicasts << ",\n";
    os << "  \"delivered_data\": " << m.node.delivered_data << ",\n";
    os << "  \"datagrams_sent\": " << m.lane.datagrams_sent << ",\n";
    os << "  \"datagrams_received\": " << m.lane.datagrams_received << ",\n";
    os << "  \"frames_delivered\": " << m.lane.frames_delivered << ",\n";
    os << "  \"retransmissions\": " << m.lane.retransmissions << ",\n";
    os << "  \"duplicate_drops\": " << m.lane.duplicate_drops << ",\n";
    os << "  \"injected_losses\": " << m.lane.injected_losses << ",\n";
    os << "  \"link_resets\": " << m.lane.link_resets << ",\n";
    os << "  \"inbound_stalls\": " << m.lane.inbound_stalls << ",\n";
    os << "  \"zero_window_probes\": " << m.lane.zero_window_probes << ",\n";
    os << "  \"malformed_datagrams\": " << m.lane.malformed_datagrams
       << ",\n";
    os << "  \"stray_datagrams\": " << m.lane.stray_datagrams << ",\n";
    os << "  \"syscalls_sent\": " << m.lane.syscalls_sent << ",\n";
    os << "  \"syscalls_recvd\": " << m.lane.syscalls_recvd << ",\n";
    os << "  \"datagrams_per_syscall\": "
       << (m.lane.syscalls_sent + m.lane.syscalls_recvd > 0
               ? static_cast<double>(m.lane.datagrams_sent +
                                     m.lane.datagrams_received) /
                     static_cast<double>(m.lane.syscalls_sent +
                                         m.lane.syscalls_recvd)
               : 0.0)
       << ",\n";
    os << "  \"wheel_cascades\": " << m.lane.wheel_cascades << ",\n";
    os << "  \"maxrss_mb\": " << peak_rss_mb() << "\n";
    os << "}\n";
    if (!os) return false;
  }
  return std::rename(tmp.c_str(), m.options->metrics.c_str()) == 0;
}

/// The introducer flow.  Returns the full roster (id -> port), or empty on
/// signal/timeout.  The introducer keeps answering late JOINs through this
/// same handler for the rest of the run (`handler stays installed`), so
/// the handler owns a share of the roster state: a JOIN retry arriving
/// after this function returned must not write into its dead frame.
std::map<std::uint32_t, std::uint16_t> run_join_flow(
    svs::net::UdpTransport& transport, const CliOptions& options) {
  using svs::net::Datagram;
  struct JoinState {
    std::map<std::uint32_t, std::uint16_t> roster;
    bool complete = false;
  };
  const auto state = std::make_shared<JoinState>();
  auto& roster = state->roster;
  const bool& roster_complete = state->complete;

  if (options.id == 0) {
    roster[0] = transport.local_port(svs::net::ProcessId(0));
    transport.set_stray_datagram_handler([state, &transport,
                                          n = options.n](const Datagram& d) {
      if (d.kind != Datagram::Kind::join) return;
      state->roster[d.join_id] = d.join_port;
      if (state->roster.size() < n) return;
      state->complete = true;
      // Answer *every* join once complete: lost rosters get repaired by
      // the joiner's retry, late joiners get re-sent the list mid-run.
      const svs::util::Bytes bytes = Datagram::encode_roster(
          {state->roster.begin(), state->roster.end()});
      auto& socket = transport.socket_of(svs::net::ProcessId(0));
      for (const auto& [id, port] : state->roster) {
        if (id != 0) (void)socket.send_to(port, bytes.data(), bytes.size());
      }
    });
  } else {
    transport.set_stray_datagram_handler([state,
                                          n = options.n](const Datagram& d) {
      if (d.kind != Datagram::Kind::roster || state->complete) return;
      for (const auto& [id, port] : d.roster) state->roster[id] = port;
      state->complete = state->roster.size() == n;
    });
  }

  const std::int64_t deadline =
      svs::net::UdpTransport::mono_us() + 30'000'000;
  std::int64_t next_join_us = 0;
  while (!roster_complete && g_signal == 0 &&
         svs::net::UdpTransport::mono_us() < deadline) {
    if (options.id != 0 &&
        svs::net::UdpTransport::mono_us() >= next_join_us) {
      const svs::util::Bytes join = Datagram::encode_join(
          options.id, transport.local_port(svs::net::ProcessId(options.id)));
      (void)transport.socket_of(svs::net::ProcessId(options.id))
          .send_to(options.introducer_port, join.data(), join.size());
      next_join_us = svs::net::UdpTransport::mono_us() + 100'000;
    }
    transport.pump(20'000);
  }
  if (!roster_complete) return {};
  if (options.id != 0) {
    // Joiners are done with pre-protocol traffic; later stray datagrams
    // (duplicate rosters) are just counted.
    transport.set_stray_datagram_handler({});
  }
  return roster;
}

int run(const CliOptions& options) {
  using namespace svs;

  sim::Simulator sim;
  net::UdpTransport::Config tc;
  tc.bind_local = true;
  tc.bind_port = options.id == 0 ? options.introducer_port : 0;
  tc.loss_rate = static_cast<double>(options.loss_permille) / 1000.0;
  tc.rcvbuf_bytes = options.rcvbuf_bytes;
  // Real processes on one box: base RTO above scheduling jitter, retry
  // budget sized so a kill -9'd peer is declared dead in a few seconds
  // (10+20+40+80+160+250*9 ms ~ 2.6s) — the heartbeat timeout usually wins.
  tc.link.window = 64;
  tc.link.rto_base_us = 10'000;
  tc.link.rto_max_us = 250'000;
  tc.link.max_retries = 14;
  net::UdpTransport transport(sim, tc);

  Metrics metrics;
  metrics.options = &options;

  const auto roster = run_join_flow(transport, options);
  if (roster.empty()) {
    metrics.exit_reason = g_signal != 0 ? "signal_during_join" : "join_timeout";
    write_metrics(metrics);
    return g_signal != 0 ? 0 : 1;
  }
  const net::ProcessId self(options.id);
  std::vector<net::ProcessId> members, peers;
  for (const auto& [id, port] : roster) {
    members.emplace_back(id);
    if (id != options.id) {
      peers.emplace_back(id);
      transport.add_peer(net::ProcessId(id), port);
    }
  }

  // The protocol stack, wired exactly like core::Group's heartbeat mode.
  fd::HeartbeatDetector::Config hb_config;
  hb_config.interval = sim::Duration::millis(100);
  hb_config.initial_timeout = sim::Duration::seconds(2.0);
  hb_config.max_timeout = sim::Duration::seconds(5.0);
  fd::HeartbeatDetector detector(sim, transport, self, peers, hb_config);

  core::NodeConfig nc;
  // The empty relation = plain view synchrony: no purging, so every
  // survivor must deliver identical per-sender sequences — the property
  // svs_deploy checks across processes.
  nc.relation = std::make_shared<obs::EmptyRelation>();
  nc.delivery_capacity = 64;
  nc.out_capacity = 64;
  const core::View initial(core::ViewId(0), members);
  core::Node node(sim, transport, detector, self, initial, nc);
  node.set_control_sink(
      [&detector](net::ProcessId from, const net::MessagePtr& message) {
        if (message->type() == net::MessageType::heartbeat) {
          detector.on_heartbeat(from);
        }
      });
  detector.start();
  core::MembershipPolicy::Config mc;
  mc.suspicion_grace = sim::Duration::millis(300);
  core::MembershipPolicy policy(sim, node, detector, mc);

  workload::InstantConsumer consumer(sim, node);
  consumer.set_sink([&metrics](const core::Delivery& d) {
    const std::string line = describe(d);
    if (line[0] == 'V' || line[0] == 'X') metrics.views.push_back(line);
    metrics.history.push_back(line);
  });
  consumer.start();

  // Flood: multicast every --interval-ms until --produce-ms of virtual time
  // (which tracks wall time), then quiesce so survivors converge before the
  // driver stops.  Retries ride the same timer when flow control blocks.
  const auto produce_until =
      sim::TimePoint::origin() + sim::Duration::millis(options.produce_ms);
  std::function<void()> produce = [&] {
    if (sim.now() >= produce_until) return;
    const auto payload = std::make_shared<workload::ItemOp>(
        workload::OpKind::update, options.id, metrics.produced,
        metrics.produced, true);
    if (node.multicast(payload, obs::Annotation::none()).has_value()) {
      ++metrics.produced;
    }
    sim.schedule_after(sim::Duration::millis(options.interval_ms), produce);
  };
  sim.schedule_after(sim::Duration::millis(1 + options.id), produce);

  runtime::RealTimeDriver driver(sim, transport);
  driver.run(sim::Duration::millis(options.duration_ms),
             [] { return g_signal != 0; });

  metrics.exit_reason = g_signal != 0 ? "signal" : "duration";
  metrics.lane = transport.lane_stats();
  metrics.net = transport.stats();
  metrics.node = node.stats();
  if (!write_metrics(metrics)) {
    std::fprintf(stderr, "svs_proc %u: cannot write %s\n", options.id,
                 options.metrics.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse(argc, argv, options)) return usage(argv[0]);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  return run(options);
}
