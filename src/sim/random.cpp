#include "sim/random.hpp"

#include <algorithm>
#include <cmath>

namespace svs::sim {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // splitmix64 expansion guarantees a non-zero state for any seed.
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  SVS_REQUIRE(bound > 0, "below() needs a positive bound");
  // Lemire-style rejection to avoid modulo bias.
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) {
  SVS_REQUIRE(lo <= hi, "between() needs lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next_u64() : below(span));
}

double Rng::uniform01() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  SVS_REQUIRE(lo <= hi, "uniform() needs lo <= hi");
  return lo + (hi - lo) * uniform01();
}

bool Rng::chance(double p) {
  SVS_REQUIRE(p >= 0.0 && p <= 1.0, "probability must be in [0, 1]");
  return uniform01() < p;
}

double Rng::exponential(double mean) {
  SVS_REQUIRE(mean > 0.0, "exponential mean must be positive");
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
  return -mean * std::log(u);
}

std::uint64_t Rng::geometric(double p) {
  SVS_REQUIRE(p > 0.0 && p <= 1.0, "geometric p must be in (0, 1]");
  if (p >= 1.0) return 0;
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_id) {
  // Two splitmix64 rounds over the id decorrelate adjacent stream ids, then
  // the xor with the master seed selects the family.  The Rng constructor
  // runs its own splitmix expansion on top, so even (seed, id) pairs whose
  // xor collides yield sequences that diverge immediately.
  std::uint64_t sm = stream_id;
  const std::uint64_t a = splitmix64(sm);
  const std::uint64_t b = splitmix64(sm);
  return Rng(seed ^ a ^ rotl(b, 31));
}

Rng Rng::split() {
  // Derive a child seed from two outputs; the parent stream advances, so
  // successive splits yield independent children.
  const std::uint64_t a = next_u64();
  const std::uint64_t b = next_u64();
  return Rng(a ^ rotl(b, 29));
}

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent)
    : exponent_(exponent) {
  SVS_REQUIRE(n > 0, "zipf needs at least one rank");
  SVS_REQUIRE(exponent >= 0.0, "zipf exponent must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 1; r <= n; ++r) {
    acc += std::pow(static_cast<double>(r), -exponent);
    cdf_[r - 1] = acc;
  }
  for (auto& c : cdf_) c /= acc;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfDistribution::sample(Rng& rng) const {
  const double u = rng.uniform01();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

double ZipfDistribution::pmf(std::size_t rank) const {
  SVS_REQUIRE(rank >= 1 && rank <= cdf_.size(), "rank out of range");
  const double hi = cdf_[rank - 1];
  const double lo = rank >= 2 ? cdf_[rank - 2] : 0.0;
  return hi - lo;
}

}  // namespace svs::sim
