// Deterministic, portable pseudo-random numbers.
//
// The standard <random> distributions are implementation-defined, so the
// same seed can produce different traces on different standard libraries.
// The experiments must be bit-reproducible, hence: xoshiro256** generator
// (seeded via splitmix64) plus hand-rolled distributions.
//
// This is the single prng for the whole tree — protocol simulation,
// workload generation, the fault-plan injector, the scenario explorer,
// randomized tests and the benches all share it, so a generator fix or a
// portability audit lands everywhere at once.
//
// Stream semantics (how to get independent sequences from one seed):
//
//   * Rng::stream(seed, k) — the k-th named substream of a master seed.
//     Pure function of (seed, k): adding draws to stream 3 never perturbs
//     stream 7.  This is how one 64-bit scenario seed fans out into
//     shape / workload / fault-plan / per-fault randomness without the
//     streams contaminating each other (shrinking relies on it: removing
//     one fault must not reshuffle the rest of the run).
//   * rng.split()        — forks a child stream *positionally*: the child
//     seed is taken from the parent's sequence, so successive splits yield
//     independent children but the k-th split depends on how many draws
//     (and splits) preceded it.  Use stream() when identity must be stable
//     under plan edits; use split() for a dynamic number of components
//     created in a fixed order.
#pragma once

#include <cstdint>
#include <vector>

#include "util/contracts.hpp"

namespace svs::sim {

/// splitmix64: advances `state` by the golden-ratio increment and returns
/// a full-avalanche mix of it.  Seed-free and portable, so anything ordered
/// by it (the digest ring, DESIGN.md §11) is identical across platforms.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** 1.0 — fast, high-quality, tiny state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform over all 64-bit values.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias.  bound must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool chance(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Geometric: number of failures before first success, p in (0, 1].
  std::uint64_t geometric(double p);

  /// Forks an independent stream (for per-component rngs that must not
  /// perturb each other's sequences when call order changes).  Positional:
  /// the child's identity depends on the parent's draw count; see the
  /// stream-semantics note at the top of this header.
  Rng split();

  /// The `stream_id`-th named substream of `seed`: a pure function of its
  /// arguments, independent of any other (seed, id) pair's sequence.
  [[nodiscard]] static Rng stream(std::uint64_t seed, std::uint64_t stream_id);

 private:
  std::uint64_t s_[4];
};

/// Zipf-distributed ranks in [1, n]: P(rank = r) proportional to r^-s.
///
/// Used to model item popularity (Fig 3(a): "a small number of items is
/// modified frequently").  Sampling is O(log n) via the precomputed CDF.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double exponent);

  [[nodiscard]] std::size_t n() const { return cdf_.size(); }
  [[nodiscard]] double exponent() const { return exponent_; }

  /// Samples a rank in [1, n].
  std::size_t sample(Rng& rng) const;

  /// Probability mass of a given rank (for calibration tests).
  [[nodiscard]] double pmf(std::size_t rank) const;

 private:
  std::vector<double> cdf_;
  double exponent_;
};

}  // namespace svs::sim
