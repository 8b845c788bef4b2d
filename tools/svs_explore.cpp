// svs_explore — seeded scenario exploration CLI (DESIGN.md §7).
//
// Sweep mode (the default) runs the seed-derived scenario for every seed in
// a range under the SpecChecker; any violation is shrunk to a minimal
// failing scenario and reported as a one-line repro that replays it
// exactly:
//
//   svs_explore --seeds=1000                # seeds 1..1000, expect silence
//   svs_explore --seeds=200 --seed-start=7  # a different window
//   svs_explore --seed=42                   # replay one seed, verbose
//   svs_explore --seed=42 --faults=0x5 --msgs=7   # replay a shrunk repro
//   svs_explore --seeds=50 --hostile        # include out-of-model faults
//                                           # (expected to fail; exercises
//                                           # the shrinker pipeline)
//   svs_explore --seeds=500 --relation=kenum  # pin every scenario to
//                                           # k-enumeration (purge-biased:
//                                           # the GC-vs-pred regression
//                                           # surface); also: item, enum,
//                                           # reliable
//   svs_explore --seeds=200 --loss=200      # add 20% all-links datagram
//                                           # loss (in-model: repaired by
//                                           # retransmission) to every
//                                           # scenario
//   svs_explore --seeds=500 --fd=swim       # pin every scenario's failure
//                                           # detector backend (also:
//                                           # oracle, heartbeat; unpinned
//                                           # scenarios draw 50/25/25)
//
// Exit code 0 iff every run was violation-free.  On failures the repro
// lines are also appended to EXPLORE_failures.txt (CI uploads it).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "sim/explorer.hpp"

namespace {

struct CliOptions {
  std::uint64_t seed = 0;
  bool single = false;
  std::uint64_t seeds = 0;
  std::uint64_t seed_start = 1;
  std::uint64_t fault_mask = ~0ULL;
  std::uint32_t message_limit = svs::sim::ScenarioSpec::kNoLimit;
  std::optional<svs::sim::RelationKind> relation_pin;
  std::optional<svs::sim::FdBackend> fd_pin;
  std::uint32_t loss_permille = 0;
  bool hostile = false;
  bool quiet = false;
  std::string failures_file = "EXPLORE_failures.txt";
};

bool parse_relation(const char* value,
                    std::optional<svs::sim::RelationKind>& out) {
  // Shared flag table (sim::relation_flag), so repro lines always
  // round-trip through this parser.
  const auto kind = svs::sim::relation_from_flag(value);
  if (!kind.has_value()) return false;
  out = kind;
  return true;
}

bool parse_u64(const char* text, std::uint64_t& out, int base = 10) {
  char* end = nullptr;
  out = std::strtoull(text, &end, base);
  return end != text && *end == '\0';
}

bool parse_flag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds=N] [--seed-start=S] | [--seed=N [--faults=0xMASK] "
      "[--msgs=K]] [--relation=reliable|item|kenum|enum] "
      "[--fd=oracle|heartbeat|swim] [--loss=PERMILLE] [--hostile] [--quiet] "
      "[--failures-file=PATH]\n",
      argv0);
  return 2;
}

bool parse(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* value = nullptr;
    if (parse_flag(arg, "--seed", &value)) {
      if (!parse_u64(value, options.seed)) return false;
      options.single = true;
    } else if (parse_flag(arg, "--seeds", &value)) {
      if (!parse_u64(value, options.seeds) || options.seeds == 0) return false;
    } else if (parse_flag(arg, "--seed-start", &value)) {
      if (!parse_u64(value, options.seed_start)) return false;
    } else if (parse_flag(arg, "--faults", &value)) {
      const bool hex = std::strncmp(value, "0x", 2) == 0;
      if (!parse_u64(hex ? value + 2 : value, options.fault_mask,
                     hex ? 16 : 10)) {
        return false;
      }
    } else if (parse_flag(arg, "--msgs", &value)) {
      std::uint64_t limit = 0;
      if (!parse_u64(value, limit)) return false;
      options.message_limit = static_cast<std::uint32_t>(limit);
    } else if (parse_flag(arg, "--relation", &value)) {
      if (!parse_relation(value, options.relation_pin)) return false;
    } else if (parse_flag(arg, "--fd", &value)) {
      // Shared flag table (sim::fd_flag), so repro lines round-trip.
      const auto backend = svs::sim::fd_from_flag(value);
      if (!backend.has_value()) return false;
      options.fd_pin = backend;
    } else if (parse_flag(arg, "--loss", &value)) {
      std::uint64_t permille = 0;
      if (!parse_u64(value, permille) || permille > 999) return false;
      options.loss_permille = static_cast<std::uint32_t>(permille);
    } else if (parse_flag(arg, "--failures-file", &value)) {
      options.failures_file = value;
    } else if (std::strcmp(arg, "--hostile") == 0) {
      options.hostile = true;
    } else if (std::strcmp(arg, "--quiet") == 0) {
      options.quiet = true;
    } else {
      return false;
    }
  }
  return options.single || options.seeds > 0;
}

void print_outcome(const svs::sim::ScenarioSpec& spec,
                   const svs::sim::ScenarioOutcome& outcome) {
  std::printf("scenario: %s\n", outcome.summary.c_str());
  std::printf(
      "  multicasts=%" PRIu64 " deliveries=%" PRIu64 " events=%" PRIu64
      " purged=%" PRIu64 " dup=%" PRIu64 " lost=%" PRIu64 " quiesced=%s\n",
      outcome.multicasts, outcome.deliveries, outcome.sim_events,
      outcome.net_stats.purged_outgoing, outcome.net_stats.injected_duplicates,
      outcome.net_stats.injected_losses, outcome.quiesced ? "yes" : "no");
  if (outcome.violations.empty()) {
    std::printf("  OK: every checked property held\n");
    return;
  }
  std::printf("  %zu violation(s):\n", outcome.violations.size());
  for (const auto& v : outcome.violations) {
    std::printf("    %s\n", v.c_str());
  }
  std::printf("  repro: %s\n", spec.repro().c_str());
}

int run_single(const CliOptions& options) {
  svs::sim::ScenarioExplorer::Options explorer_options;
  explorer_options.hostile = options.hostile;
  explorer_options.relation_pin = options.relation_pin;
  explorer_options.fd_pin = options.fd_pin;
  explorer_options.loss_permille = options.loss_permille;
  svs::sim::ScenarioExplorer explorer(explorer_options);
  svs::sim::ScenarioSpec spec;
  spec.seed = options.seed;
  spec.relation_pin = options.relation_pin;
  spec.fd_pin = options.fd_pin;
  spec.fault_mask = options.fault_mask;
  spec.message_limit = options.message_limit;
  spec.hostile = options.hostile;
  spec.loss_permille = options.loss_permille;
  const auto outcome = explorer.run(spec);
  print_outcome(spec, outcome);

  // A full (unshrunk) failing replay also demonstrates the shrinker.
  if (!outcome.violations.empty() && spec.fault_mask == ~0ULL &&
      spec.message_limit == svs::sim::ScenarioSpec::kNoLimit) {
    const auto shrunk = explorer.shrink(spec);
    const auto shrunk_outcome = explorer.run(shrunk);
    std::printf("shrunk: %s\n", shrunk_outcome.summary.c_str());
    std::printf("  %zu violation(s); repro: %s\n",
                shrunk_outcome.violations.size(), shrunk.repro().c_str());
  }
  return outcome.violations.empty() ? 0 : 1;
}

int run_sweep(const CliOptions& options) {
  svs::sim::ScenarioExplorer::Options explorer_options;
  explorer_options.hostile = options.hostile;
  explorer_options.relation_pin = options.relation_pin;
  explorer_options.fd_pin = options.fd_pin;
  explorer_options.loss_permille = options.loss_permille;
  svs::sim::ScenarioExplorer explorer(explorer_options);
  std::vector<std::string> failures;
  std::uint64_t events = 0;
  for (std::uint64_t i = 0; i < options.seeds; ++i) {
    const std::uint64_t seed = options.seed_start + i;
    const auto exploration = explorer.explore(seed);
    events += exploration.outcome.sim_events;
    if (!exploration.outcome.violations.empty()) {
      const auto& spec =
          exploration.shrunk.has_value() ? *exploration.shrunk
                                         : exploration.spec;
      const auto& outcome = exploration.shrunk_outcome.has_value()
                                ? *exploration.shrunk_outcome
                                : exploration.outcome;
      // Keep the ORIGINAL violation on the artifact line: shrinking chases
      // any failure, so the minimal scenario may surface a different
      // (weaker) violation class than the bug that flagged the seed.
      std::string line = spec.repro();
      line += "   # original: ";
      line += exploration.outcome.violations.front();
      if (exploration.shrunk_outcome.has_value() &&
          !outcome.violations.empty() &&
          outcome.violations.front() != exploration.outcome.violations.front()) {
        line += " | shrunk: ";
        line += outcome.violations.front();
      }
      failures.push_back(line);
      std::printf("seed %" PRIu64 ": %zu violation(s)\n  first: %s\n"
                  "  shrunk repro: %s\n",
                  seed, exploration.outcome.violations.size(),
                  exploration.outcome.violations.front().c_str(),
                  spec.repro().c_str());
    }
    if (!options.quiet && (i + 1) % 100 == 0) {
      std::printf("  ... %" PRIu64 "/%" PRIu64 " seeds, %zu failure(s)\n",
                  i + 1, options.seeds, failures.size());
      std::fflush(stdout);
    }
  }
  std::printf("explored %" PRIu64 " seed(s) [%" PRIu64
              "..%" PRIu64 "]: %zu failure(s), %" PRIu64 " sim events\n",
              options.seeds, options.seed_start,
              options.seed_start + options.seeds - 1, failures.size(),
              events);
  if (!failures.empty()) {
    std::ofstream out(options.failures_file, std::ios::app);
    for (const auto& line : failures) out << line << "\n";
    std::printf("repro lines appended to %s\n",
                options.failures_file.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse(argc, argv, options)) return usage(argv[0]);
  return options.single ? run_single(options) : run_sweep(options);
}
