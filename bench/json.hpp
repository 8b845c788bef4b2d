// Minimal machine-readable output for the bench binaries.
//
// Every bench_* writes a BENCH_<name>.json next to its working directory so
// successive PRs can diff the perf trajectory (messages sent/purged,
// view-change latency, purge-scan work, events per second, wall time)
// without scraping the human-readable tables.
#pragma once

#include <sched.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace svs::bench {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream os;
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    os << static_cast<std::int64_t>(v);
  } else {
    os.precision(12);
    os << v;
  }
  return os.str();
}

/// Order-preserving JSON object builder.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& add(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& add(const std::string& key, const std::string& v) {
    std::string quoted;
    quoted.reserve(v.size() + 2);
    quoted.push_back('"');
    quoted += json_escape(v);
    quoted.push_back('"');
    return raw(key, std::move(quoted));
  }
  JsonObject& add(const std::string& key, const char* v) {
    return add(key, std::string(v));
  }
  JsonObject& raw(const std::string& key, std::string rendered) {
    fields_.emplace_back(key, std::move(rendered));
    return *this;
  }

  [[nodiscard]] std::string render() const {
    // Appended piecewise: chained operator+ on temporaries trips GCC 12's
    // -Wrestrict false positive once inlined (breaks the -Werror CI job).
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i != 0) out += ", ";
      out.push_back('"');
      out += json_escape(fields_[i].first);
      out += "\": ";
      out += fields_[i].second;
    }
    out.push_back('}');
    return out;
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

class JsonArray {
 public:
  JsonArray& push(const JsonObject& o) {
    items_.push_back(o.render());
    return *this;
  }
  JsonArray& push_raw(std::string rendered) {
    items_.push_back(std::move(rendered));
    return *this;
  }

  [[nodiscard]] std::string render() const {
    std::string out = "[";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i != 0) out += ", ";
      out += items_[i];
    }
    out.push_back(']');
    return out;
  }

 private:
  std::vector<std::string> items_;
};

/// Wall-clock stopwatch for the mandatory wall_time_seconds field.
class WallClock {
 public:
  WallClock() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// The first "model name" of /proc/cpuinfo, or "unknown" where there is
/// none.
inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    const auto value = line.find_first_not_of(" \t", colon + 1);
    return value == std::string::npos ? "unknown" : line.substr(value);
  }
  return "unknown";
}

/// CPUs this process may run on, as nproc(1) counts them.
inline unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// Build and host provenance for the `meta` key: which commit (and whether
/// the tree was dirty), compiler, flags, CPU model and CPU count produced a
/// JSON (committed baselines are meaningless without it).  The build
/// macros come from CMake (target_compile_definitions on
/// svs_bench_common); each degrades to "unknown" when absent so ad-hoc
/// compiles still build.
inline std::string bench_meta_json() {
  JsonObject meta;
#ifdef SVS_BENCH_GIT_SHA
  meta.add("git_sha", SVS_BENCH_GIT_SHA);
#else
  meta.add("git_sha", "unknown");
#endif
#ifdef SVS_BENCH_GIT_DIRTY
  meta.add("git_dirty", SVS_BENCH_GIT_DIRTY != 0);
#else
  meta.add("git_dirty", "unknown");
#endif
#ifdef __VERSION__
  meta.add("compiler", __VERSION__);
#else
  meta.add("compiler", "unknown");
#endif
#ifdef SVS_BENCH_BUILD_TYPE
  meta.add("build_type", SVS_BENCH_BUILD_TYPE);
#else
  meta.add("build_type", "unknown");
#endif
#ifdef SVS_BENCH_CXX_FLAGS
  meta.add("cxx_flags", SVS_BENCH_CXX_FLAGS);
#else
  meta.add("cxx_flags", "unknown");
#endif
  meta.add("cpu_model", cpu_model());
  meta.add("nproc", static_cast<double>(cpu_count()));
  return meta.render();
}

/// Writes BENCH_<name>.json (overwriting) and notes the path on stdout.
/// Appends the `meta` provenance key; the caller's sections keep their
/// names and order, so existing JSON diffing stays valid.
inline void write_bench_json(const std::string& name,
                             const JsonObject& payload) {
  JsonObject stamped = payload;
  stamped.raw("meta", bench_meta_json());
  std::string path = "BENCH_";
  path += name;
  path += ".json";
  std::ofstream out(path);
  out << stamped.render() << "\n";
  std::cout << "\n[json] wrote " << path << "\n";
}

}  // namespace svs::bench
