// bench_service — the replicated key-value service benchmark.
//
// Drives app::KvStore as a primary-backup service and measures each layer
// from outside, by timing calls into public functions.  See README.md in
// this directory for the workloads, the metrics and how to read a trace.
//
//   bench_service --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1|file>]
//   bench_service --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
//   bench_service --workload kv_hot_slow_udp --variant reliable
//   bench_service --selftest
//
// Every run prints each end-to-end metric as `name value unit`, checks the
// outputs, writes BENCH_service.json and exits non-zero if a check failed.
// For a single workload the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics, or with --trace the per-layer metrics of a separate
// traced run (plus a Chrome trace-event file of sampled puts).
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "report.hpp"
#include "result.hpp"
#include "schedule.hpp"
#include "selftest.hpp"
#include "sim_run.hpp"
#include "udp_run.hpp"

namespace {

using namespace svs::bench_service;

constexpr const char* kUsage =
    "usage: bench_service (--workload <name> | --all | --selftest)\n"
    "                     [--seed <n>] [--seconds <s>] [--trace <0|1|file>]\n"
    "                     [--variant reliable] [--out <file>]\n"
    "workloads: kv_uniform_udp kv_hot_slow_udp kv_churn_udp kv_flood_sim\n";

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string trace_path;  // empty: BENCH_service_trace_<workload>.json
  bool reliable = false;
  bool selftest = false;
  std::string out = "BENCH_service.json";
};

bool parse(int argc, char** argv, Options& o, std::string& error) {
  bool all = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    if (arg == "--all" || arg == "--selftest") {
      (arg == "--all" ? all : o.selftest) = true;
      continue;
    }
    if (eq == std::string::npos) {
      if (i + 1 >= argc) {
        error = arg + " needs a value";
        return false;
      }
      value = argv[++i];
    }
    char* end = nullptr;
    if (arg == "--workload") {
      const Workload* w = find_workload(value);
      if (w == nullptr) {
        error = "unknown workload " + value;
        return false;
      }
      o.workloads.push_back(w);
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') {
        error = "bad seed " + value;
        return false;
      }
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0.0 && o.seconds <= 600.0)) {
        error = "--seconds must be in (0, 600]";
        return false;
      }
    } else if (arg == "--trace") {
      o.trace = value != "0";
      if (value != "0" && value != "1") o.trace_path = value;
    } else if (arg == "--variant") {
      if (value != "reliable") {
        error = "the only variant is reliable";
        return false;
      }
      o.reliable = true;
    } else if (arg == "--out") {
      o.out = value;
    } else {
      error = "unknown option " + arg;
      return false;
    }
  }
  if (o.selftest) return true;
  if (all == !o.workloads.empty() || o.workloads.size() > 1) {
    error = "give one --workload, or --all";
    return false;
  }
  if (all) {
    for (const auto& w : workloads()) o.workloads.push_back(&w);
    if (!o.trace_path.empty()) {
      error = "--trace <file> needs a single workload; use --trace 1";
      return false;
    }
  }
  if (o.reliable && (all || !o.workloads[0]->slow_backup)) {
    error = "--variant reliable applies to kv_hot_slow_udp only";
    return false;
  }
  return true;
}

/// One run, in a forked process of its own that ships the result back.
/// The library's allocation pools keep every block they recycle, so a run
/// sharing a process with an earlier one (--all, the traced and reliable
/// runs) would start on a used heap and report that run's peak memory.
RunResult run(const Workload& w, const Options& o, bool traced, bool reliable) {
  std::vector<int> parent_fds;
  auto child = fork_child(
      [&](Channel& ch) {
        RunResult r = w.udp ? run_udp(w, o.seed, o.seconds, traced, reliable)
                            : run_sim(w, o.seed, o.seconds, traced);
        ch.send(kResult, pack(r));
      },
      parent_fds);
  const auto frame = child.channel->recv(
      now_ns() + static_cast<std::int64_t>((o.seconds + 150.0) * 1e9));
  if (frame.type != kResult) throw std::runtime_error("run failed: " + frame.body);
  RunResult r;
  unpack(frame.body, r);
  ::waitpid(std::exchange(child.process.pid, -1), nullptr, 0);
  return r;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string meta_json(const Options& o) {
  utsname u{};
  const std::string kernel = ::uname(&u) == 0 ? u.release : "unknown";
  return "{\"cpu_model\": " + quoted(cpu_model()) +
         ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"kernel\": " + quoted(kernel) + ", \"seed\": " + std::to_string(o.seed) +
         ", \"seconds\": " + number(o.seconds) + "}";
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const auto& m : metrics) {
    std::printf("%-34s %s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str());
  }
}

bool print_failures(const char* what, const RunResult& r) {
  for (const auto& f : r.failures) std::printf("CHECK FAILED (%s): %s\n", what, f.c_str());
  return r.failures.empty();
}

std::string failures_json(const RunResult& r) {
  std::string s = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    s += (i == 0 ? "" : ", ") + quoted(r.failures[i]);
  }
  return s + "]";
}

void print_comparison(const RunResult& semantic, const RunResult& reliable) {
  std::printf("# semantic purging vs reliable delivery, same seed\n");
  std::printf("%-24s %14s %14s\n", "metric", "semantic", "reliable");
  auto a = end_to_end(semantic), b = end_to_end(reliable);
  const auto ha = health(semantic), hb = health(reliable);
  a.insert(a.end(), ha.begin(), ha.end());
  b.insert(b.end(), hb.begin(), hb.end());
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::printf("%-24s %14.4f %14.4f %s\n", a[i].name.c_str(), a[i].value, b[i].value,
                a[i].unit.c_str());
  }
}

int run_all(const Options& o) {
  bool all_ok = true;
  std::string workloads_json;
  std::string last_line;
  for (const Workload* w : o.workloads) {
    std::printf("# %s (seed %llu, %g s)\n", w->name,
                static_cast<unsigned long long>(o.seed), o.seconds);
    std::fflush(stdout);
    const RunResult plain = run(*w, o, false, false);
    const auto e2e = end_to_end(plain);
    print_metrics(e2e);
    print_metrics(health(plain));
    bool ok = print_failures("untraced", plain);
    std::string json = "{\"end_to_end\": " + metrics_json(e2e) +
                       ", \"health\": " + metrics_json(health(plain)) +
                       ", \"failures\": " + failures_json(plain);
    const RunResult* gated = &plain;
    std::vector<Metric> layers;
    RunResult traced;
    if (o.trace) {
      traced = run(*w, o, true, false);
      layers = per_layer(traced, plain);
      if (summarize_stages(traced).mismatches != 0) {
        traced.failures.push_back("sampled stages do not sum to visible latency");
      }
      const std::string path = o.trace_path.empty()
                                   ? "BENCH_service_trace_" + std::string(w->name) + ".json"
                                   : o.trace_path;
      if (!write_trace(path, traced)) traced.failures.push_back("cannot write " + path);
      std::printf("# %s per layer (traced run; spans in %s)\n", w->name, path.c_str());
      print_metrics(layers);
      ok = print_failures("traced", traced) && ok;
      json += ", \"per_layer\": " + metrics_json(layers) +
              ", \"traced_failures\": " + failures_json(traced);
      gated = &traced;
    }
    if (o.reliable) {
      const RunResult rel = run(*w, o, false, true);
      print_comparison(plain, rel);
      ok = print_failures("reliable", rel) && ok;
      auto rel_metrics = end_to_end(rel);
      const auto rel_health = health(rel);
      rel_metrics.insert(rel_metrics.end(), rel_health.begin(), rel_health.end());
      json += ", \"reliable\": " + metrics_json(rel_metrics);
    }
    all_ok = all_ok && ok;
    workloads_json += std::string(workloads_json.empty() ? "" : ", ") + quoted(w->name) +
                      ": " + json + ", \"correct\": " + (ok ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(gated->attempted) +
                      ", \"failed\": " + std::to_string(gated->failed) + "}";
    last_line = std::string("{\"correct\": ") + (ok ? "true" : "false") +
                ", \"attempted\": " + std::to_string(gated->attempted) +
                ", \"failed\": " + std::to_string(gated->failed) +
                ", \"metrics\": " + metrics_json(o.trace ? layers : e2e) + "}";
    std::fflush(stdout);
  }
  std::ofstream(o.out, std::ios::trunc)
      << "{\"meta\": " << meta_json(o) << ", \"workloads\": {" << workloads_json
      << "}}\n";
  if (o.workloads.size() == 1) std::printf("%s\n", last_line.c_str());
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A backup that dies mid-run must surface as a failed check, not kill
  // the supervisor on its next pipe write.
  std::signal(SIGPIPE, SIG_IGN);
  Options o;
  std::string error;
  if (!parse(argc, argv, o, error)) {
    std::fprintf(stderr, "%s\n%s", error.c_str(), kUsage);
    return 2;
  }
  try {
    return o.selftest ? run_selftest() : run_all(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_service: %s\n", e.what());
    return 1;
  }
}
