// Workload definitions, the seeded put schedule and the per-backup
// visibility bookkeeping.
//
// Every member regenerates the schedule from the seed, so only the seed
// crosses process boundaries.  Put i writes value i to its key; a backup
// that applies value j therefore knows exactly which put it applied, and
// every earlier put of the same key not yet seen there becomes visible at
// that moment (it was purged as obsolete, or overwritten in the same
// delivery run).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "histogram.hpp"
#include "sim/random.hpp"

namespace svs::bench_service {

/// One named benchmark workload.  Later changes refer to these names.
struct Workload {
  const char* name;
  bool udp;             // four forked members over loopback UDP; else sim
  double rate;          // open-loop puts/s (UDP); the sim is closed loop
  std::uint32_t keys;   // key space, drawn uniformly
  bool fresh_keys;      // no key repeats within kHorizon puts: nothing purges
  bool slow_backup;     // backup 3 consumes at kSlowRate
  bool churn;           // member 0 requests a view change every kChurnEveryNs
};

inline constexpr double kSlowRate = 1000.0;           // puts/s at backup 3
inline constexpr std::int64_t kChurnEveryNs = 200'000'000;
inline constexpr std::uint64_t kSampleOneIn = 64;     // traced puts
inline constexpr std::uint64_t kWarmupValue = ~std::uint64_t{0};
/// KvStore's k-enumeration horizon: a put can only make one of the
/// previous kHorizon puts obsolete.
inline constexpr std::int64_t kHorizon = 32;
/// Latency and throughput are medians over windows of this length.
inline constexpr std::int64_t kWindowNs = 1'000'000'000;

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      // Real-network data path at a quarter of the measured saturation;
      // no put is obsolete, so purging does nothing.
      {"kv_uniform_udp", true, 4000.0, 10'000, true, false, false},
      // The paper's scenario: 8 hot keys (well inside the horizon) and one
      // backup consuming at 1000 puts/s, so purging in the delivery queue
      // and the outgoing buffer carries the load.
      {"kv_hot_slow_udp", true, 4000.0, 8, false, true, false},
      // Uniform load plus a view change every 200 ms: INIT/PRED,
      // consensus, flush and the blocked-producer path.
      {"kv_churn_udp", true, 4000.0, 10'000, true, false, true},
      // Closed-loop in-process simulation: protocol CPU cost with no
      // kernel and no waiting.
      {"kv_flood_sim", false, 0.0, 100'000, true, false, false},
  };
  return all;
}

inline const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// The key strings the store is written with, by key index.
inline std::vector<std::string> key_names(std::uint32_t keys) {
  std::vector<std::string> names;
  names.reserve(keys);
  for (std::uint32_t k = 0; k < keys; ++k) names.push_back("key" + std::to_string(k));
  return names;
}

/// The seeded stream of puts: the key each writes — uniform over the key
/// space, and on fresh-key workloads never a key one of the previous
/// kHorizon puts wrote — the previous put of that key, and whether the
/// traced run samples it.  Keeps no per-put history.
class PutStream {
 public:
  struct Put {
    std::uint32_t key = 0;
    std::int64_t prev = -1;  // previous put of the same key, or -1
    bool sampled = false;
  };

  PutStream(std::uint64_t seed, std::uint32_t keys, bool fresh_keys)
      : keys_(keys),
        fresh_keys_(fresh_keys),
        key_rng_(sim::Rng::stream(seed, 2)),
        sample_rng_(sim::Rng::stream(seed, 3)),
        last_of_key_(keys, -1) {}

  Put next() {
    std::uint32_t key = 0;
    do {
      key = static_cast<std::uint32_t>(key_rng_.below(keys_));
    } while (fresh_keys_ && last_of_key_[key] >= 0 &&
             count_ - last_of_key_[key] <= kHorizon);
    return take(key);
  }

  /// The next put, writing `key` (synthetic schedules in the self-test).
  Put take(std::uint32_t key) {
    const Put put{key, last_of_key_[key], sample_rng_.below(kSampleOneIn) == 0};
    last_of_key_[key] = count_++;
    return put;
  }

  [[nodiscard]] std::uint32_t keys() const { return keys_; }

 private:
  std::uint32_t keys_;
  bool fresh_keys_;
  sim::Rng key_rng_;
  sim::Rng sample_rng_;
  std::vector<std::int64_t> last_of_key_;
  std::int64_t count_ = 0;
};

/// The open-loop schedule: every put of the stream with its due time, an
/// offset from the load start.
class Schedule {
 public:
  Schedule(std::uint64_t seed, std::uint32_t keys, bool fresh_keys)
      : stream_(seed, keys, fresh_keys), gap_rng_(sim::Rng::stream(seed, 1)) {}

  /// Poisson arrivals at `rate` over `seconds`.
  void generate(double rate, double seconds) {
    const double mean_gap_ns = 1e9 / rate;
    for (double due = gap_rng_.exponential(mean_gap_ns); due < seconds * 1e9;
         due += gap_rng_.exponential(mean_gap_ns)) {
      push(static_cast<std::int64_t>(due), stream_.next());
    }
  }

  /// Appends a put of a given key (synthetic schedules in the self-test).
  void add(std::int64_t due_ns, std::uint32_t key) { push(due_ns, stream_.take(key)); }

  [[nodiscard]] std::size_t size() const { return key_.size(); }
  [[nodiscard]] std::uint32_t keys() const { return stream_.keys(); }
  [[nodiscard]] std::uint32_t key(std::uint64_t i) const { return key_[i]; }
  [[nodiscard]] std::int64_t due(std::uint64_t i) const { return due_[i]; }
  /// Previous put of the same key, or -1.
  [[nodiscard]] std::int64_t prev(std::uint64_t i) const { return prev_[i]; }
  [[nodiscard]] const std::vector<bool>& sampled() const { return sampled_; }

 private:
  void push(std::int64_t due_ns, const PutStream::Put& put) {
    due_.push_back(due_ns);
    key_.push_back(put.key);
    prev_.push_back(put.prev);
    sampled_.push_back(put.sampled);
  }

  PutStream stream_;
  sim::Rng gap_rng_;
  std::vector<std::int64_t> due_;
  std::vector<std::uint32_t> key_;
  std::vector<std::int64_t> prev_;
  std::vector<bool> sampled_;
};

/// One backup's view of which puts of an open-loop schedule it can already
/// read.  Due offsets become absolute times with `origin` (the load
/// start); latencies are kept per kWindowNs window of due time.
class Visibility {
 public:
  Visibility(const Schedule& schedule, std::int64_t origin_ns)
      : schedule_(schedule), origin_(origin_ns), applied_(schedule.keys(), -1) {}

  /// Backup applied put `j` at `at_ns`: j and every unseen earlier put of
  /// its key become visible.  A value at or below the key's last applied
  /// put means the per-key order broke; it is counted, not applied.
  void on_apply(std::uint64_t j, std::int64_t at_ns) {
    if (j >= schedule_.size()) {
      ++order_errors_;
      return;
    }
    auto& last = applied_[schedule_.key(j)];
    if (static_cast<std::int64_t>(j) <= last) {
      ++order_errors_;
      return;
    }
    for (auto i = static_cast<std::int64_t>(j); i > last;
         i = schedule_.prev(static_cast<std::uint64_t>(i))) {
      const auto u = static_cast<std::uint64_t>(i);
      const auto window = static_cast<std::size_t>(schedule_.due(u) / kWindowNs);
      if (window >= windows_.size()) windows_.resize(window + 1);
      windows_[window].record(at_ns - (origin_ + schedule_.due(u)));
      if (schedule_.sampled()[u]) sampled_visible_[u] = at_ns;
      ++visible_;
    }
    last = static_cast<std::int64_t>(j);
  }

  [[nodiscard]] std::uint64_t visible() const { return visible_; }
  [[nodiscard]] bool all_visible() const { return visible_ == schedule_.size(); }
  [[nodiscard]] std::uint64_t order_errors() const { return order_errors_; }
  /// Visible latency (ns) of the puts due in each window.
  [[nodiscard]] const std::vector<Histogram>& windows() const { return windows_; }
  /// Absolute visible time of each sampled put seen so far.
  [[nodiscard]] const std::map<std::uint64_t, std::int64_t>& sampled_visible()
      const {
    return sampled_visible_;
  }

  /// Puts still invisible here: everything after each key's last applied.
  [[nodiscard]] std::vector<std::uint32_t> invisible() const {
    std::vector<std::uint32_t> out;
    for (std::uint64_t i = 0; i < schedule_.size(); ++i) {
      if (static_cast<std::int64_t>(i) > applied_[schedule_.key(i)]) {
        out.push_back(static_cast<std::uint32_t>(i));
      }
    }
    return out;
  }

 private:
  const Schedule& schedule_;
  std::int64_t origin_;
  std::vector<std::int64_t> applied_;  // per key: last applied put
  std::uint64_t visible_ = 0;
  std::uint64_t order_errors_ = 0;
  std::vector<Histogram> windows_;
  std::map<std::uint64_t, std::int64_t> sampled_visible_;
};

}  // namespace svs::bench_service
