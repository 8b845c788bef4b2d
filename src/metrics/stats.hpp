// Small statistics toolkit for the experiment harnesses.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace svs::metrics {

/// Time-weighted average of a piecewise-constant signal (e.g. buffer
/// occupancy): each add() records the value holding *since* the previous
/// add.
class TimeWeightedMean {
 public:
  explicit TimeWeightedMean(sim::TimePoint start) : last_(start) {}

  /// Reports that the signal has had value `x` since the last call.
  void record(sim::TimePoint now, double x);

  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const { return max_; }

 private:
  sim::TimePoint last_;
  double weighted_sum_ = 0.0;
  double total_time_ = 0.0;
  double max_ = 0.0;
};

/// Samples a callback at a fixed period and accumulates a TimeWeightedMean.
/// This mirrors how the paper "observ[es] the amount of buffer used".
class PeriodicSampler {
 public:
  PeriodicSampler(sim::Simulator& simulator, sim::Duration period,
                  std::function<double()> probe);

  void start();
  void stop();

  [[nodiscard]] const TimeWeightedMean& series() const { return mean_; }

 private:
  void tick();

  sim::Simulator& sim_;
  sim::Duration period_;
  std::function<double()> probe_;
  TimeWeightedMean mean_;
  sim::EventId pending_{};
};

/// Allocator counters: the pooled hot-path allocator (util/pool.hpp)
/// counts free-list reuses vs system-allocator trips.  snapshot() reads
/// the calling thread's pool, which holds the whole process's protocol
/// work (one protocol thread per process); diff two snapshots to attribute
/// work to a measured region (bench_micro's flood and bench_service do).
/// Protocol and transport counters live where they are produced:
/// core::NodeStats, net::NetworkStats, net::UdpLaneStats.
struct Stats {
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t bytes_recycled = 0;

  [[nodiscard]] static Stats snapshot();

  [[nodiscard]] Stats operator-(const Stats& since) const {
    return Stats{pool_hits - since.pool_hits,
                 pool_misses - since.pool_misses,
                 bytes_recycled - since.bytes_recycled};
  }
};

}  // namespace svs::metrics
