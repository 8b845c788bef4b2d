#include "metrics/stats.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/pool.hpp"

namespace svs::metrics {

Stats Stats::snapshot() {
  const util::PoolStats pools = util::Pool::local().stats();
  return Stats{pools.hits, pools.misses, pools.bytes_recycled};
}

void TimeWeightedMean::record(sim::TimePoint now, double x) {
  SVS_REQUIRE(now >= last_, "samples must be time-ordered");
  const double dt = static_cast<double>((now - last_).as_micros());
  weighted_sum_ += dt * x;
  total_time_ += dt;
  last_ = now;
  max_ = std::max(max_, x);
}

double TimeWeightedMean::mean() const {
  return total_time_ <= 0.0 ? 0.0 : weighted_sum_ / total_time_;
}

PeriodicSampler::PeriodicSampler(sim::Simulator& simulator,
                                 sim::Duration period,
                                 std::function<double()> probe)
    : sim_(simulator), period_(period), probe_(std::move(probe)),
      mean_(simulator.now()) {
  SVS_REQUIRE(period_ > sim::Duration::zero(), "period must be positive");
  SVS_REQUIRE(probe_ != nullptr, "probe must be callable");
}

void PeriodicSampler::start() {
  SVS_REQUIRE(!pending_.valid(), "sampler already running");
  tick();
}

void PeriodicSampler::tick() {
  mean_.record(sim_.now(), probe_());
  pending_ = sim_.schedule_after(period_, [this] { tick(); });
}

void PeriodicSampler::stop() {
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = sim::EventId{};
  }
}

}  // namespace svs::metrics
