// Seeded scenario exploration with failing-case shrinking (DESIGN.md §7).
//
// One 64-bit seed determines a complete scenario: group size, obsolescence
// relation, buffer bounds, failure-detector kind, a per-node workload plan,
// mid-run reconfigurations / voluntary leaves, and a sim::FaultPlan of
// in-model perturbations (jitter, partitions with heal, crashes,
// duplication, receiver pauses).  The explorer runs the scenario on the
// simulated transport under a core::SpecChecker and verifies every §3.2
// property plus the quiescence/liveness check — across thousands of seeds
// this is the systematic model test the ROADMAP's "as many scenarios as you
// can imagine" asks for.
//
// On a violation the explorer *shrinks*: it masks fault-plan entries out
// one by one (each fault replays with private, id-keyed randomness, so
// removal never reshuffles the rest — sim/fault_plan.hpp) and bisects the
// per-node workload down to the smallest prefix that still fails.  The
// result is a minimal failing ScenarioSpec whose one-line repro
// (`svs_explore --seed=N [--faults=0x.. --msgs=K]`) replays the failure
// exactly, run after run.
//
// Layering note: this file lives in sim/ with the other harness substrate
// but sits at the *top* of the stack — it drives core::Group, the workload
// consumers and the transport fault hooks.  Nothing below sim/explorer
// includes it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.hpp"

namespace svs::sim {

/// Which obsolescence representation a scenario's protocol stack runs.
/// The spec checker always verifies against the *ground truth* relation
/// (same sender + same item + higher seq, transitively closed by
/// construction); k_enum and enumeration under-declare it — a bitmap
/// cannot reach past k, a windowed enumeration truncates — which is
/// exactly what makes their GC interesting (DESIGN.md §7).
enum class RelationKind : std::uint8_t {
  empty = 0,       // reliable baseline (strict VS must also hold)
  item_tag = 1,
  k_enum = 2,
  enumeration = 3,
};

/// The `--relation=` CLI flag for a kind, and its inverse.  One shared
/// table: ScenarioSpec::repro() prints these and svs_explore parses them,
/// so a printed repro line always round-trips.
[[nodiscard]] const char* relation_flag(RelationKind kind);
[[nodiscard]] std::optional<RelationKind> relation_from_flag(
    std::string_view flag);

/// Which failure-detector backend a scenario's group runs.  All three are
/// drawn by the seed (oracle half the time; heartbeat and SWIM a quarter
/// each) and pinnable via `--fd=` for targeted sweeps.
enum class FdBackend : std::uint8_t {
  oracle = 0,
  heartbeat = 1,
  swim = 2,
};

/// The `--fd=` CLI flag for a backend, and its inverse (same round-trip
/// discipline as relation_flag).
[[nodiscard]] const char* fd_flag(FdBackend backend);
[[nodiscard]] std::optional<FdBackend> fd_from_flag(std::string_view flag);

/// A replayable point in scenario space: the seed plus the shrinker's two
/// reduction knobs and the optional relation pin.  Defaults mean "the full
/// seed-derived scenario".
struct ScenarioSpec {
  static constexpr std::uint32_t kNoLimit = 0xffffffff;

  std::uint64_t seed = 0;
  /// Overrides the seed-derived relation kind (e.g. a purge-biased
  /// k-enumeration sweep: the GC-vs-pred regression surface).  Part of the
  /// repro line.
  std::optional<RelationKind> relation_pin;
  /// Keep fault-plan entry i iff bit i is set (entries are masked out by
  /// the shrinker; randomness of the survivors is unaffected).
  std::uint64_t fault_mask = ~0ULL;
  /// Per-node workload prefix: each node sends at most this many of its
  /// planned messages.
  std::uint32_t message_limit = kNoLimit;
  /// Include the out-of-model fault kinds (drop_one) in generation.  §3.2
  /// is expected to break under hostile plans; the flag exists to exercise
  /// the checker/shrinker pipeline and must be part of the repro.
  bool hostile = false;
  /// Overrides the seed-derived failure-detector backend (e.g. a
  /// SWIM-pinned sweep).  Part of the repro line (`--fd=`).
  std::optional<FdBackend> fd_pin;
  /// Extra all-links datagram-loss fault, in permille (0 = none): appended
  /// to the plan *after* masking with a stable id, so it is never shrunk
  /// away and never perturbs the seed-derived faults.  In-model (loss is
  /// repaired by retransmission); on the UDP backend the same spec also
  /// drops real datagrams.  Part of the repro line (`--loss=`).
  std::uint32_t loss_permille = 0;

  /// The one-line replay command for this spec.
  [[nodiscard]] std::string repro() const;
};

struct ScenarioOutcome {
  /// Empty = every checked property held.  Includes §3.2 (SpecChecker),
  /// strict VS for empty-relation scenarios, quiescence/liveness, and a
  /// synthetic "did not quiesce" entry when the run missed its deadline.
  std::vector<std::string> violations;
  bool quiesced = false;
  /// Scenario shape, for logs and the repro report.
  std::uint32_t group_size = 0;
  std::size_t faults_active = 0;   // fault-plan entries after masking
  std::size_t faults_total = 0;    // entries in the unmasked plan
  std::size_t planned_sends = 0;   // workload entries after truncation
  std::uint64_t multicasts = 0;    // successful t2 calls (checker-recorded)
  std::uint64_t deliveries = 0;    // data deliveries (checker-recorded)
  std::uint64_t sim_events = 0;    // simulator events executed
  net::NetworkStats net_stats;
  /// Human-readable scenario description (shape + fault plan).
  std::string summary;
};

class ScenarioExplorer {
 public:
  struct Options {
    /// Generate hostile (out-of-model) faults in explore()'d scenarios.
    bool hostile = false;
    /// Pin every explored scenario's relation kind (svs_explore
    /// --relation=...); nullopt = seed-derived.
    std::optional<RelationKind> relation_pin;
    /// Pin every explored scenario's failure-detector backend
    /// (svs_explore --fd=oracle|heartbeat|swim); nullopt = seed-derived.
    std::optional<FdBackend> fd_pin;
    /// Add an all-links datagram-loss fault to every explored scenario
    /// (svs_explore --loss=permille).
    std::uint32_t loss_permille = 0;
  };

  ScenarioExplorer() = default;
  explicit ScenarioExplorer(Options options) : options_(options) {}

  /// Runs the scenario `spec` describes.  Pure function of the spec: the
  /// same spec always produces the same outcome, which is what makes repro
  /// lines and shrinking meaningful.
  [[nodiscard]] ScenarioOutcome run(const ScenarioSpec& spec) const;

  struct Exploration {
    ScenarioSpec spec;
    ScenarioOutcome outcome;
    /// Present iff the original run failed: the minimal failing spec found
    /// by shrinking, and its (still-failing) outcome.
    std::optional<ScenarioSpec> shrunk;
    std::optional<ScenarioOutcome> shrunk_outcome;
  };

  /// run() + shrink-on-violation for one seed.
  [[nodiscard]] Exploration explore(std::uint64_t seed) const;

  /// Reduces a failing spec: greedy fault-mask removal to a fixpoint, then
  /// a bisection of the workload prefix, then one more fault pass.  The
  /// returned spec is always still failing.
  [[nodiscard]] ScenarioSpec shrink(const ScenarioSpec& failing) const;

 private:
  Options options_{};
};

}  // namespace svs::sim
