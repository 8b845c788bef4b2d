// Log-linear histogram of non-negative integer samples (nanoseconds, queue
// lengths, datagram counts).
//
// Values below 2^(kSubBits+1) get one exact bucket each; above that every
// power of two is split into 2^kSubBits equal buckets, so a reported
// percentile is within one bucket, 2^-kSubBits (0.4%), of the true sample.
// Memory grows with the largest sample only: ten seconds in nanoseconds
// needs ~7k buckets.  Count, sum, min and max are kept exactly, so means
// are exact.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace svs::bench_service {

class Histogram {
 public:
  static constexpr int kSubBits = 8;

  void record(std::int64_t value) {
    const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(value, 0));
    const std::size_t i = index_of(v);
    if (i >= counts_.size()) counts_.resize(i + 1, 0);
    ++counts_[i];
    ++count_;
    sum_ += static_cast<double>(v);
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }

  void merge(const Histogram& other) {
    if (other.counts_.size() > counts_.size()) {
      counts_.resize(other.counts_.size(), 0);
    }
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  /// Nearest-rank percentile (p in [0, 100]): the sample of rank
  /// ceil(p/100 * count).  Inside a wide bucket its samples are taken as
  /// evenly spread, so the estimate moves with the distribution instead of
  /// snapping to a bucket; it is clamped to the observed [min, max].  0
  /// when empty.
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               std::ceil(p / 100.0 * static_cast<double>(count_))));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (seen + counts_[i] < rank) {
        seen += counts_[i];
        continue;
      }
      const double within = (static_cast<double>(rank - seen) - 0.5) /
                            static_cast<double>(counts_[i]);
      const double v = width_of(i) == 1
                           ? static_cast<double>(lower_of(i))
                           : static_cast<double>(lower_of(i)) +
                                 within * static_cast<double>(width_of(i));
      return std::clamp(v, static_cast<double>(min_), static_cast<double>(max_));
    }
    return static_cast<double>(max_);
  }

  /// Largest distance between a sample and the value percentile() may
  /// report for it (one bucket width).
  [[nodiscard]] static double resolution_at(std::uint64_t v) {
    return static_cast<double>(width_of(index_of(v)));
  }

  template <class Archive>
  void io(Archive& ar) {
    ar(counts_, count_, sum_, min_, max_);
  }

 private:
  static constexpr std::uint64_t kExact = std::uint64_t{1} << (kSubBits + 1);
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  static std::size_t index_of(std::uint64_t v) {
    if (v < kExact) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBits;
    const std::uint64_t mantissa = v >> shift;  // in [kSub, 2*kSub)
    return static_cast<std::size_t>(kExact +
                                    static_cast<std::uint64_t>(shift - 1) * kSub +
                                    (mantissa - kSub));
  }
  static std::uint64_t lower_of(std::size_t i) {
    if (i < kExact) return i;
    const std::uint64_t k = i - kExact;
    const auto shift = static_cast<int>(k / kSub) + 1;
    return (k % kSub + kSub) << shift;
  }
  static std::uint64_t width_of(std::size_t i) {
    if (i < kExact) return 1;
    return std::uint64_t{1} << (static_cast<int>((i - kExact) / kSub) + 1);
  }

  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

}  // namespace svs::bench_service
