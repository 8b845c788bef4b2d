// From a RunResult to named metrics: the end-to-end set (gated by
// BENCHMARK.json), the per-layer set of a traced run, the stage split of
// sampled puts, and the Chrome trace-event file.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "histogram.hpp"
#include "net/message.hpp"
#include "result.hpp"

namespace svs::bench_service {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Shortest text that reads back as exactly `v`; non-finite values (a
/// ratio with an empty base) print as 0.
inline std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

/// Nearest-rank percentile of a small sample (0 when empty).
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

inline double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

/// Which load window a run's latency and throughput come from, as a
/// percentile over the windows ranked from slowest to fastest.  An open
/// loop reports its typical second, the median window, so a scheduling
/// hiccup in one second does not move the run.  In the closed loop a
/// window's figures are set by CPU speed alone, which other tenants of a
/// shared machine can only lower, and which swung by a fifth from one
/// second to the next: it reports its least disturbed seconds, the window
/// at the fastest tenth.
inline double fast_window_rank(const RunResult& r) { return r.closed_loop ? 90 : 50; }

/// Visible latency (ms) at `backups`: per load window, the p-th percentile
/// of the merged backups; over windows, the one fast_window_rank picks.
inline double windowed_ms(const RunResult& r,
                          const std::vector<std::uint32_t>& backups, double p) {
  std::size_t windows = 0;
  for (const auto b : backups) windows = std::max(windows, r.members[b].visible.size());
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    Histogram h;
    for (const auto b : backups) {
      if (w < r.members[b].visible.size()) h.merge(r.members[b].visible[w]);
    }
    if (h.count() != 0) per_window.push_back(h.percentile(p) / 1e6);
  }
  return percentile(per_window, 100 - fast_window_rank(r));
}

/// Puts per second visible everywhere, in the window fast_window_rank picks.
inline double windowed_rate(const RunResult& r) {
  return percentile(r.window_rate, fast_window_rank(r));
}

/// The end-to-end metrics, in BENCHMARK.json order.
inline std::vector<Metric> end_to_end(const RunResult& r) {
  double peak_rss = 0.0;
  for (const auto& m : r.members) peak_rss = std::max(peak_rss, m.maxrss_mb);
  return {
      {"setup_s", percentile(r.setup_s, 50), "s"},
      {"visible_p50_ms", windowed_ms(r, r.fast_backups, 50), "ms"},
      {"visible_p99_ms", windowed_ms(r, r.fast_backups, 99), "ms"},
      {"slow_visible_p99_ms", windowed_ms(r, r.slow_backups, 99), "ms"},
      {"view_change_p50_ms", percentile(r.view_change_ms, 50), "ms"},
      {"view_change_p90_ms", percentile(r.view_change_ms, 90), "ms"},
      {"puts_per_s", windowed_rate(r), "1/s"},
      {"wire_bytes_per_put",
       ratio(static_cast<double>(r.wire_bytes), static_cast<double>(r.attempted)),
       "B/put"},
      {"peak_rss_mb", peak_rss, "MB"},
  };
}

/// Reported beside the end-to-end set but not gated: both are 0 whenever
/// the run is healthy (a failed put also makes the run incorrect).
inline std::vector<Metric> health(const RunResult& r) {
  return {
      {"producer_blocked_frac", ratio(r.blocked_s, r.load_s), "ratio"},
      {"put_failed_frac",
       ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
       "ratio"},
  };
}

// --- stages of sampled puts --------------------------------------------

inline constexpr std::array<const char*, 7> kStages = {
    "gen.late", "app.put",          "outbox",   "net.wire",
    "core.queue_wait", "core.try_deliver", "app.apply"};

/// A sampled put's path from its due time to one backup's apply, split at
/// contiguous stamps, so the stages sum to exactly its visible latency.
/// Empty when a stamp is missing: the put was purged at that backup (a
/// later put of its key made it visible) or reached it by a view-change
/// flush rather than on_message.
inline std::optional<std::array<std::int64_t, kStages.size()>> split_stages(
    const Stamps& primary, const Stamps& backup) {
  for (const auto s : primary) if (s == 0) return std::nullopt;
  for (const auto s : backup) if (s == 0) return std::nullopt;
  // The DATA multicast returns inside put() unless flow control parked
  // the put in the outbox.
  const std::int64_t handed = std::min(primary[2], primary[3]);
  const std::array<std::int64_t, kStages.size() + 1> edges = {
      primary[0], primary[1], handed,    primary[3],
      backup[0],  backup[1],  backup[2], backup[3]};
  std::array<std::int64_t, kStages.size()> out{};
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = edges[k + 1] - edges[k];
  return out;
}

struct StageSummary {
  std::array<Histogram, kStages.size()> stage;
  Histogram visible;
  std::uint64_t mismatches = 0;  // stage sum != recorded visible latency
};

inline StageSummary summarize_stages(const RunResult& r) {
  StageSummary s;
  Probe merged;
  for (const auto& m : r.members) merged.merge(m.probe);
  for (std::size_t b = 1; b < r.members.size(); ++b) {
    for (const auto& [put, visible_at] : r.members[b].sampled_visible) {
      const auto p = merged.at_primary.find(put);
      const auto q = merged.at_backup.find(
          Probe::backup_key(put, static_cast<std::uint32_t>(b)));
      if (p == merged.at_primary.end() || q == merged.at_backup.end()) continue;
      const auto stages = split_stages(p->second, q->second);
      if (!stages) continue;
      std::int64_t sum = 0;
      for (std::size_t k = 0; k < stages->size(); ++k) {
        s.stage[k].record((*stages)[k]);
        sum += (*stages)[k];
      }
      const std::int64_t latency = visible_at - p->second[0];
      s.visible.record(latency);
      if (sum != latency) ++s.mismatches;
    }
  }
  return s;
}

// --- per-layer metrics --------------------------------------------------

/// The per-layer metrics of a traced run; `plain` is the untraced run of
/// the same workload and seed, for the tracing overhead.
inline std::vector<Metric> per_layer(const RunResult& t, const RunResult& plain) {
  Probe p;
  for (const auto& m : t.members) p.merge(m.probe);
  const auto sum = [&](auto field) {
    double total = 0.0;
    for (const auto& m : t.members) total += static_cast<double>(field(m));
    return total;
  };
  const double puts = std::max<double>(1.0, static_cast<double>(t.attempted));
  const double changes =
      std::max<double>(1.0, static_cast<double>(t.view_change_ms.size()));
  const auto per_put = [&](auto field) { return sum(field) / puts; };
  const auto us = [](const Span& s) { return s.ns.mean() / 1e3; };
  const auto type = [&](net::MessageType m) {
    return static_cast<std::size_t>(m);
  };
  const StageSummary st = summarize_stages(t);
  const double purged = sum([](const MemberReport& m) { return m.node.purged_delivery; });
  const double scans = sum([](const MemberReport& m) { return m.queue.purge_scan_steps; });
  const double syscalls = sum([](const MemberReport& m) {
    return m.lane.syscalls_sent + m.lane.syscalls_recvd;
  });
  const double wall = sum([](const MemberReport& m) { return m.wall_s; });
  const double cpu = sum([](const MemberReport& m) { return m.cpu_s; });
  const double plain_p50 = windowed_ms(plain, plain.fast_backups, 50);
  const double plain_rate = windowed_rate(plain);

  std::vector<Metric> out = {
      // app
      {"app.put_us_mean", us(p.put), "us"},
      {"app.put_us_p99", p.put.ns.percentile(99) / 1e3, "us"},
      {"app.apply_us_mean", us(p.apply), "us"},
      {"app.outbox_depth_p99", p.outbox_depth.percentile(99), "count"},
      {"app.producer_blocked_frac", ratio(t.blocked_s, t.load_s), "ratio"},
      // core: data path
      {"core.on_message_us_mean", us(p.on_message), "us"},
      {"core.on_message_per_put", static_cast<double>(p.on_message.calls) / puts, "1/put"},
      {"core.try_deliver_us_mean", us(p.try_deliver), "us"},
      {"core.queue_wait_ms_p50", st.stage[4].percentile(50) / 1e6, "ms"},
      {"core.queue_wait_ms_p99", st.stage[4].percentile(99) / 1e6, "ms"},
      {"core.refused_data_per_put", per_put([](const MemberReport& m) { return m.node.refused_data; }), "1/put"},
      {"core.multicast_blocked_per_put", per_put([](const MemberReport& m) { return m.node.multicast_blocked; }), "1/put"},
      // core: purging
      {"core.purged_delivery_per_put", purged / puts, "1/put"},
      {"core.suppressed_obsolete_per_put", per_put([](const MemberReport& m) { return m.node.suppressed_obsolete; }), "1/put"},
      {"core.purge_scan_steps_per_put", scans / puts, "1/put"},
      {"core.purge_hit_ratio", ratio(purged, scans), "ratio"},
      {"core.delivery_queue_len_p99", p.queue_len.percentile(99), "count"},
      {"net.purged_outgoing_per_put", per_put([](const MemberReport& m) { return m.net.purged_outgoing; }), "1/put"},
      // core: stability
      {"core.stability_gcs_per_put", per_put([](const MemberReport& m) { return m.node.stability_gcs; }), "1/put"},
      {"core.frontier_piggybacks_per_put", per_put([](const MemberReport& m) { return m.node.frontier_piggybacks; }), "1/put"},
      {"core.gossip_rounds_suppressed_per_s", ratio(sum([](const MemberReport& m) { return m.node.gossip_rounds_suppressed; }), t.load_s), "1/s"},
      {"core.debts_recorded_per_put", per_put([](const MemberReport& m) { return m.node.debts_recorded; }), "1/put"},
      {"core.delivered_retained_p99", p.retained.percentile(99), "count"},
      // core: view change and consensus
      {"core.flushed_in_per_change", sum([](const MemberReport& m) { return m.node.flushed_in; }) / changes, "1/change"},
      {"core.install_spread_ms_p90", percentile(t.install_spread_ms, 90), "ms"},
      {"consensus.msgs_per_change", static_cast<double>(p.msgs[type(net::MessageType::consensus)]) / changes, "1/change"},
      {"consensus.bytes_per_change", static_cast<double>(p.bytes[type(net::MessageType::consensus)]) / changes, "B/change"},
      // fd
      {"fd.heartbeat_bytes_per_s", ratio(static_cast<double>(p.bytes[type(net::MessageType::heartbeat)]), t.members[0].wall_s), "B/s"},
      {"fd.false_suspicions", sum([](const MemberReport& m) { return m.false_suspicions; }), "count"},
      // net
      {"net.multicast_us_mean", us(p.multicast), "us"},
      {"net.send_us_mean", us(p.send), "us"},
      {"net.pump_us_mean", us(p.pump), "us"},
      {"net.pump_datagrams_per_call", p.pump_datagrams.mean(), "count"},
      {"net.wire_ms_p50", st.stage[3].percentile(50) / 1e6, "ms"},
      {"net.wire_ms_p99", st.stage[3].percentile(99) / 1e6, "ms"},
      {"net.datagrams_per_put", per_put([](const MemberReport& m) { return m.lane.datagrams_sent; }), "1/put"},
      {"net.syscalls_per_put", syscalls / puts, "1/put"},
      {"net.datagrams_per_syscall", ratio(sum([](const MemberReport& m) { return m.lane.datagrams_sent + m.lane.datagrams_received; }), syscalls), "ratio"},
      {"net.frames_per_datagram", ratio(sum([](const MemberReport& m) { return m.lane.frames_delivered; }), sum([](const MemberReport& m) { return m.lane.datagrams_received; })), "ratio"},
      {"net.ack_bytes_per_put", per_put([](const MemberReport& m) { return m.lane.ack_bytes; }), "B/put"},
      {"net.retransmissions_per_put", per_put([](const MemberReport& m) { return m.lane.retransmissions; }), "1/put"},
      {"net.inbound_stalls_per_put", per_put([](const MemberReport& m) { return m.lane.inbound_stalls; }), "1/put"},
      {"net.zero_window_probes", sum([](const MemberReport& m) { return m.lane.zero_window_probes; }), "count"},
      {"net.send_queue_drops", sum([](const MemberReport& m) { return m.lane.send_queue_drops; }), "count"},
  };
  for (const auto& [name, kind] :
       {std::pair{"data", net::MessageType::data}, {"init", net::MessageType::init},
        {"pred", net::MessageType::pred}, {"stability", net::MessageType::stability},
        {"consensus", net::MessageType::consensus},
        {"heartbeat", net::MessageType::heartbeat}}) {
    out.push_back({std::string("net.bytes.") + name + "_per_put",
                   static_cast<double>(p.bytes[type(kind)]) / puts, "B/put"});
  }
  const std::vector<Metric> rest = {
      // sim
      {"sim.events_per_put", per_put([](const MemberReport& m) { return m.sim_events; }), "1/put"},
      {"sim.run_us_per_put", us(p.run) * static_cast<double>(p.run.calls) / puts, "us"},
      {"sim.run_until_us_mean", us(p.run), "us"},
      // runtime
      {"runtime.cpu_us_per_put", cpu * 1e6 / puts, "us"},
      {"runtime.busy_frac", ratio(cpu, wall), "ratio"},
      {"runtime.loop_iterations_per_s", ratio(sum([](const MemberReport& m) { return m.loop_iterations; }), wall), "1/s"},
      {"runtime.generator_late_ms_max", static_cast<double>(t.generator_late_max_ns) / 1e6, "ms"},
      // util
      {"util.pool_hits_per_put", per_put([](const MemberReport& m) { return m.pool.pool_hits; }), "1/put"},
      {"util.pool_misses_per_put", per_put([](const MemberReport& m) { return m.pool.pool_misses; }), "1/put"},
      // stages of sampled puts (means add up to stage.visible_ms_mean)
      {"stage.gen_late_ms_mean", st.stage[0].mean() / 1e6, "ms"},
      {"stage.app_put_ms_mean", st.stage[1].mean() / 1e6, "ms"},
      {"stage.outbox_ms_mean", st.stage[2].mean() / 1e6, "ms"},
      {"stage.net_wire_ms_mean", st.stage[3].mean() / 1e6, "ms"},
      {"stage.queue_wait_ms_mean", st.stage[4].mean() / 1e6, "ms"},
      {"stage.try_deliver_ms_mean", st.stage[5].mean() / 1e6, "ms"},
      {"stage.apply_ms_mean", st.stage[6].mean() / 1e6, "ms"},
      {"stage.visible_ms_mean", st.visible.mean() / 1e6, "ms"},
      {"stage.samples", static_cast<double>(st.visible.count()), "count"},
      {"stage.sum_mismatches", static_cast<double>(st.mismatches), "count"},
      // tracing overhead: traced against untraced, same workload and seed
      {"trace.overhead_visible_p50_frac",
       ratio(windowed_ms(t, t.fast_backups, 50) - plain_p50, plain_p50), "ratio"},
      {"trace.overhead_puts_per_s_frac",
       ratio(plain_rate - windowed_rate(t), plain_rate), "ratio"},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

// --- output -------------------------------------------------------------

inline std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    s += (i == 0 ? "" : ", ") + quoted(metrics[i].name) +
         ": {\"value\": " + number(metrics[i].value) +
         ", \"unit\": " + quoted(metrics[i].unit) + "}";
  }
  return s + "}";
}

/// Chrome trace-event JSON (opens in Perfetto / chrome://tracing): one row
/// per sampled put and member; primary-side stages on member 0, the rest
/// on the backup.  Times are microseconds from the load start.
inline bool write_trace(const std::string& path, const RunResult& r) {
  Probe merged;
  for (const auto& m : r.members) merged.merge(m.probe);
  std::ofstream os(path, std::ios::trunc);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto event = [&](const char* name, std::size_t pid, std::uint64_t put,
                         std::int64_t from, std::int64_t to) {
    os << (first ? "" : ",\n") << "{\"name\": " << quoted(name)
       << ", \"cat\": \"put\", \"ph\": \"X\", \"pid\": " << pid
       << ", \"tid\": " << put
       << ", \"ts\": " << number(static_cast<double>(from - r.origin_ns) / 1e3)
       << ", \"dur\": " << number(static_cast<double>(to - from) / 1e3)
       << ", \"args\": {\"put\": " << put << "}}";
    first = false;
  };
  for (std::size_t id = 0; id < r.members.size(); ++id) {
    os << (first ? "" : ",\n")
       << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " << id
       << ", \"args\": {\"name\": \"member " << id
       << (id == 0 ? " (primary)" : "") << "\"}}";
    first = false;
  }
  for (const auto& [put, p] : merged.at_primary) {
    if (std::count(p.begin(), p.end(), 0) != 0) continue;
    const std::int64_t handed = std::min(p[2], p[3]);
    event(kStages[0], 0, put, p[0], p[1]);
    event(kStages[1], 0, put, p[1], handed);
    event(kStages[2], 0, put, handed, p[3]);
  }
  for (const auto& [key, b] : merged.at_backup) {
    const std::uint64_t put = key / 8;
    const std::size_t member = key % 8;
    const auto p = merged.at_primary.find(put);
    if (member == 0 || p == merged.at_primary.end()) continue;
    const auto stages = split_stages(p->second, b);
    if (!stages) continue;
    std::int64_t at = p->second[3];
    for (std::size_t k = 3; k < stages->size(); ++k) {
      event(kStages[k], member, put, at, at + (*stages)[k]);
      at += (*stages)[k];
    }
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace svs::bench_service
