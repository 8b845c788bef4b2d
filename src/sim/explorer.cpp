#include "sim/explorer.hpp"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "core/checker.hpp"
#include "core/group.hpp"
#include "net/fault_injector.hpp"
#include "obs/batch.hpp"
#include "obs/relation.hpp"
#include "sim/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"
#include "workload/consumer.hpp"
#include "workload/item_op.hpp"

namespace svs::sim {
namespace {

struct PlannedSend {
  TimePoint at;
  std::uint64_t item = 0;
};

/// The fully derived scenario (shape + workload + faults), after the spec's
/// mask and truncation have been applied.  Everything here is a pure
/// function of the ScenarioSpec.
struct Scenario {
  std::uint32_t n = 3;
  RelationKind relation = RelationKind::item_tag;
  std::size_t kenum_horizon = 8;       // k_enum bitmap horizon
  std::uint64_t enum_window = 0;       // enumeration truncation (0 = full)
  bool purging = true;
  std::size_t delivery_capacity = 0;
  std::size_t out_capacity = 0;
  FdBackend fd = FdBackend::oracle;
  sim::Duration oracle_delay = sim::Duration::millis(30);
  sim::Duration suspicion_grace = sim::Duration::millis(20);
  bool slow_consumer = false;
  double slow_rate = 50.0;
  bool reconfigure = false;
  std::uint32_t reconfigurer = 0;
  TimePoint reconfigure_at;
  bool leave = false;
  std::uint32_t leaver = 0;
  TimePoint leave_at;
  Duration horizon = Duration::millis(1500);
  std::vector<std::vector<PlannedSend>> sends;  // per node, time-sorted
  FaultPlan faults;                             // masked
  std::size_t faults_total = 0;                 // before masking
  std::size_t planned_total = 0;                // after truncation
};

// Master-seed stream ids (sim::Rng::stream): keep them distinct so no two
// derivation phases share a sequence.
constexpr std::uint64_t kShapeStream = 0;
constexpr std::uint64_t kWorkloadStream = 1;
constexpr std::uint64_t kFaultSeedStream = 2;

Scenario make_scenario(const ScenarioSpec& spec) {
  Scenario sc;
  Rng shape = Rng::stream(spec.seed, kShapeStream);

  sc.n = static_cast<std::uint32_t>(3 + shape.below(4));  // 3..6
  // Relation mix, biased towards the representations whose GC is hardest:
  // k-enumeration (and windowed enumeration) under-declare the true
  // obsolescence order, which is where the purge-debt ledger earns its
  // keep.  The draws always happen (pin or not) so a pinned replay shares
  // every other derived choice with the unpinned seed.
  const std::uint64_t relation_draw = shape.below(100);
  sc.relation = relation_draw < 20   ? RelationKind::empty
                : relation_draw < 50 ? RelationKind::item_tag
                : relation_draw < 85 ? RelationKind::k_enum
                                     : RelationKind::enumeration;
  sc.kenum_horizon = 2 + shape.below(9);            // 2..10
  sc.enum_window = shape.chance(0.5) ? 2 + shape.below(6) : 0;
  const bool purge_draw_tight = shape.chance(0.85);
  const bool purge_draw_loose = shape.chance(0.95);
  if (spec.relation_pin.has_value()) sc.relation = *spec.relation_pin;
  // Purge-biased where it matters: k-enum and enumeration scenarios almost
  // always run sender-side purging (the regression surface); the empty
  // relation purges nothing by construction.
  sc.purging = sc.relation == RelationKind::item_tag ? purge_draw_tight
                                                     : purge_draw_loose;
  if (shape.chance(0.55)) {
    // Tight buffers are where sender-side purging (and its GC interplay)
    // actually fires: go as low as one delivery slot.
    sc.delivery_capacity = 1 + shape.below(15);
    sc.out_capacity = 2 + shape.below(15);
  }
  // One uniform01 draw (exactly the old heartbeat-chance draw, so every
  // later stream position is unchanged): [0, .25) heartbeat as before,
  // [.25, .5) SWIM carved out of the old oracle share, the rest oracle.
  const double fd_draw = shape.uniform01();
  sc.fd = fd_draw < 0.25   ? FdBackend::heartbeat
          : fd_draw < 0.50 ? FdBackend::swim
                           : FdBackend::oracle;
  if (spec.fd_pin.has_value()) sc.fd = *spec.fd_pin;
  sc.oracle_delay = Duration::millis(5 + static_cast<std::int64_t>(shape.below(30)));
  sc.suspicion_grace =
      Duration::millis(5 + static_cast<std::int64_t>(shape.below(20)));
  sc.slow_consumer = shape.chance(0.5);
  sc.slow_rate = 8.0 + static_cast<double>(shape.below(75));

  // Departure budget: crashes plus voluntary leaves must leave every view
  // with an alive majority (consensus liveness), so cap them below half of
  // the initial group.
  const std::uint32_t budget = (sc.n - 1) / 2;
  sc.leave = budget > 0 && shape.chance(0.3);
  const std::uint32_t crash_budget = budget - (sc.leave ? 1 : 0);

  // The fault plan draws from its own master seed, so its internal streams
  // (shape, per-fault) can never collide with the explorer's.
  const std::uint64_t plan_seed =
      Rng::stream(spec.seed, kFaultSeedStream).next_u64();
  FaultPlan::GenerateOptions fault_options;
  fault_options.processes = sc.n;
  fault_options.horizon = sc.horizon;
  fault_options.max_crashes = crash_budget;
  fault_options.hostile = spec.hostile;
  const FaultPlan full = FaultPlan::generate(plan_seed, fault_options);
  sc.faults_total = full.faults.size();
  sc.faults = full.masked(spec.fault_mask);

  // The spec's explicit loss knob rides along after masking: its id sits
  // past every generated entry (stable rng stream regardless of the mask),
  // and the shrinker's mask bits never cover it — a requested loss rate is
  // part of the scenario, not a removable fault.
  if (spec.loss_permille > 0) {
    FaultSpec f;
    f.kind = FaultKind::loss;
    f.id = static_cast<std::uint32_t>(full.faults.size());
    f.a = FaultSpec::kAllLinks;
    f.start = TimePoint::origin();
    f.end = TimePoint::origin() + sc.horizon;
    f.probability = std::min(static_cast<double>(spec.loss_permille), 999.0) /
                    1000.0;
    f.magnitude = Duration::millis(3);  // per-lost-transmission RTO
    sc.faults.faults.push_back(f);
  }

  // The voluntary leaver must not be one of the (unmasked) plan's crash
  // victims — a crashed node cannot request its own departure.  Note the
  // choice depends on the full plan, not the mask, so shrinking the mask
  // never moves the leaver.
  if (sc.leave) {
    std::vector<std::uint32_t> victims;
    for (const auto& f : full.faults) {
      if (f.kind == FaultKind::crash) victims.push_back(f.a);
    }
    std::uint32_t pick =
        static_cast<std::uint32_t>(shape.below(sc.n - victims.size()));
    for (std::uint32_t p = 0; p < sc.n; ++p) {
      if (std::find(victims.begin(), victims.end(), p) != victims.end()) {
        continue;
      }
      if (pick == 0) {
        sc.leaver = p;
        break;
      }
      --pick;
    }
    sc.leave_at = TimePoint::origin() + sc.horizon + sc.horizon / 5;
  }
  sc.reconfigure = shape.chance(0.5);
  sc.reconfigurer = static_cast<std::uint32_t>(shape.below(sc.n));
  sc.reconfigure_at = TimePoint::origin() + sc.horizon * 9 / 20;

  // Workload: per node, a time-sorted plan of tagged multicasts within the
  // horizon.  Generated in full, then truncated to the spec's per-node
  // prefix (the shrinker's second knob).
  Rng workload = Rng::stream(spec.seed, kWorkloadStream);
  sc.sends.resize(sc.n);
  for (std::uint32_t i = 0; i < sc.n; ++i) {
    auto& plan = sc.sends[i];
    // Two workload shapes per node: uniform singles (the old generator),
    // or game-round-like bursts — a run of quick updates of ONE item, which
    // is what builds purge chains inside a backed-up channel (§4.1's
    // composite-update traffic, and the purge-debt regression surface).
    const bool bursty = workload.chance(0.5);
    if (!bursty) {
      const std::uint64_t count = 8 + workload.below(25);
      plan.reserve(count);
      for (std::uint64_t m = 0; m < count; ++m) {
        plan.push_back(PlannedSend{
            TimePoint::origin() +
                Duration::micros(static_cast<std::int64_t>(workload.below(
                    static_cast<std::uint64_t>(sc.horizon.as_micros())))),
            workload.below(6)});
      }
    } else {
      const std::uint64_t bursts = 3 + workload.below(6);
      for (std::uint64_t b = 0; b < bursts; ++b) {
        const std::uint64_t item = workload.below(6);
        const std::uint64_t length = 2 + workload.below(6);
        TimePoint at =
            TimePoint::origin() +
            Duration::micros(static_cast<std::int64_t>(workload.below(
                static_cast<std::uint64_t>(sc.horizon.as_micros()))));
        for (std::uint64_t m = 0; m < length; ++m) {
          plan.push_back(PlannedSend{at, item});
          at = at + Duration::micros(
                        500 + static_cast<std::int64_t>(workload.below(4000)));
        }
      }
    }
    // stable_sort: equal-time ties keep generation order, so the plan is
    // identical across standard libraries (repro lines are cross-platform).
    std::stable_sort(plan.begin(), plan.end(),
                     [](const PlannedSend& a, const PlannedSend& b) {
                       return a.at < b.at;
                     });
    if (spec.message_limit != ScenarioSpec::kNoLimit &&
        plan.size() > spec.message_limit) {
      plan.resize(spec.message_limit);
    }
    sc.planned_total += plan.size();
  }
  return sc;
}

const char* relation_label(RelationKind kind) {
  switch (kind) {
    case RelationKind::empty: return "empty-rel";
    case RelationKind::item_tag: return "item-tags";
    case RelationKind::k_enum: return "k-enum";
    case RelationKind::enumeration: return "enum";
  }
  return "?";
}

/// The *ground truth* obsolescence order of the explorer workload: same
/// sender, same planned item, higher seq — transitively closed by
/// construction.  Drivers send their plan prefix in order, so node i's
/// seq s is plan entry s-1; the compact annotations (k-enum bitmaps,
/// windowed enumerations) under-declare this truth, never contradict it.
class PlannedItemTruth final : public obs::Relation {
 public:
  explicit PlannedItemTruth(std::vector<std::vector<std::uint64_t>> items)
      : items_(std::move(items)) {}

  [[nodiscard]] bool covers(const obs::MessageRef& newer,
                            const obs::MessageRef& older) const override {
    if (newer.sender != older.sender || newer.seq <= older.seq) return false;
    const auto node = static_cast<std::size_t>(newer.sender.value());
    if (node >= items_.size()) return false;
    const auto& plan = items_[node];
    if (newer.seq > plan.size() || older.seq == 0 ||
        older.seq > plan.size()) {
      return false;
    }
    return plan[newer.seq - 1] == plan[older.seq - 1];
  }
  [[nodiscard]] const char* name() const override { return "planned-truth"; }

 private:
  std::vector<std::vector<std::uint64_t>> items_;  // node -> (seq-1 -> item)
};

std::string summarize(const Scenario& sc) {
  std::ostringstream os;
  os << "n=" << sc.n << ' ' << relation_label(sc.relation);
  if (sc.relation == RelationKind::k_enum) os << "(k=" << sc.kenum_horizon << ")";
  if (sc.relation == RelationKind::enumeration && sc.enum_window != 0) {
    os << "(win=" << sc.enum_window << ")";
  }
  os << (sc.purging ? " purge" : " reliable") << " cap="
     << sc.delivery_capacity << "/" << sc.out_capacity << ' '
     << fd_flag(sc.fd) << "-fd";
  if (sc.slow_consumer) os << " slow=" << sc.slow_rate << "/s";
  if (sc.reconfigure) os << " reconf@p" << sc.reconfigurer;
  if (sc.leave) os << " leave@p" << sc.leaver;
  os << " msgs=" << sc.planned_total << " | " << sc.faults.describe();
  return os.str();
}

/// Per-node producer: multicasts its planned sends at their times, retrying
/// around flow control via the unblocked callback; stops when the node
/// leaves the group or crash-stops.  For the compact representations it
/// composes the annotations the way a real producer would
/// (obs::BatchComposer, singleton batches): k-enum bitmaps fold the
/// transitive closure up to the horizon, enumerations carry (optionally
/// windowed) seq lists.
class Driver {
 public:
  Driver(Simulator& sim, core::Group& group, std::size_t index,
         std::vector<PlannedSend> planned, const Scenario& sc)
      : sim_(sim),
        group_(group),
        index_(index),
        planned_(std::move(planned)),
        relation_(sc.relation),
        composer_(composer_config(sc)) {}

  void start() {
    group_.node(index_).set_unblocked_callback([this] { pump(); });
    if (!planned_.empty()) {
      sim_.schedule_at(planned_[0].at, [this] { pump(); });
    }
  }

  [[nodiscard]] bool done() const {
    return next_ >= planned_.size() || group_.node(index_).excluded() ||
           group_.network().is_crashed(group_.pid(index_));
  }

 private:
  static obs::BatchComposer::Config composer_config(const Scenario& sc) {
    obs::BatchComposer::Config cfg;
    cfg.representation = sc.relation == RelationKind::enumeration
                             ? obs::AnnotationKind::enumeration
                             : obs::AnnotationKind::k_enum;
    cfg.k = sc.kenum_horizon;
    cfg.enumeration_window = sc.enum_window;
    return cfg;
  }

  [[nodiscard]] obs::Annotation annotate(std::uint64_t item,
                                         std::uint64_t seq,
                                         obs::BatchComposer& trial) const {
    switch (relation_) {
      case RelationKind::empty: return obs::Annotation::none();
      case RelationKind::item_tag: return obs::Annotation::item(item);
      case RelationKind::k_enum:
      case RelationKind::enumeration: return trial.single(item, seq);
    }
    SVS_UNREACHABLE("relation kind exhausted");
  }

  void pump() {
    core::Node& node = group_.node(index_);
    while (next_ < planned_.size()) {
      if (node.excluded() ||
          group_.network().is_crashed(group_.pid(index_))) {
        return;  // left the group (or the fault plan crash-stopped us)
      }
      const PlannedSend& p = planned_[next_];
      if (sim_.now() < p.at) {
        sim_.schedule_at(p.at, [this] { pump(); });
        return;
      }
      // The composer notes the seq it annotates for, but a multicast may
      // still be refused by flow control — so the annotation is composed
      // on a scratch copy that only replaces the real composer once the
      // send committed.
      obs::BatchComposer trial = composer_;
      const auto annotation = annotate(p.item, node.next_seq(), trial);
      const auto payload = std::make_shared<workload::ItemOp>(
          workload::OpKind::update, p.item, next_ * 17 + index_,
          next_, true);
      if (!node.multicast(payload, annotation).has_value()) {
        return;  // flow-controlled; the unblocked callback re-enters
      }
      composer_ = std::move(trial);
      ++next_;
    }
  }

  Simulator& sim_;
  core::Group& group_;
  std::size_t index_;
  std::vector<PlannedSend> planned_;
  RelationKind relation_;
  obs::BatchComposer composer_;
  std::size_t next_ = 0;
};

}  // namespace

const char* relation_flag(RelationKind kind) {
  switch (kind) {
    case RelationKind::empty: return "reliable";
    case RelationKind::item_tag: return "item";
    case RelationKind::k_enum: return "kenum";
    case RelationKind::enumeration: return "enum";
  }
  return "?";
}

std::optional<RelationKind> relation_from_flag(std::string_view flag) {
  for (const auto kind :
       {RelationKind::empty, RelationKind::item_tag, RelationKind::k_enum,
        RelationKind::enumeration}) {
    if (flag == relation_flag(kind)) return kind;
  }
  return std::nullopt;
}

const char* fd_flag(FdBackend backend) {
  switch (backend) {
    case FdBackend::oracle: return "oracle";
    case FdBackend::heartbeat: return "heartbeat";
    case FdBackend::swim: return "swim";
  }
  return "?";
}

std::optional<FdBackend> fd_from_flag(std::string_view flag) {
  for (const auto backend :
       {FdBackend::oracle, FdBackend::heartbeat, FdBackend::swim}) {
    if (flag == fd_flag(backend)) return backend;
  }
  return std::nullopt;
}

std::string ScenarioSpec::repro() const {
  std::ostringstream os;
  os << "svs_explore --seed=" << seed;
  if (relation_pin.has_value()) {
    os << " --relation=" << relation_flag(*relation_pin);
  }
  if (fd_pin.has_value()) os << " --fd=" << fd_flag(*fd_pin);
  if (hostile) os << " --hostile";
  if (loss_permille != 0) os << " --loss=" << loss_permille;
  if (fault_mask != ~0ULL) {
    os << " --faults=0x" << std::hex << fault_mask << std::dec;
  }
  if (message_limit != kNoLimit) os << " --msgs=" << message_limit;
  return os.str();
}

ScenarioOutcome ScenarioExplorer::run(const ScenarioSpec& spec) const {
  const Scenario sc = make_scenario(spec);

  Simulator sim;
  // The protocol runs the scenario's declared representation; the checker
  // verifies against the ground truth (which the compact representations
  // only under-approximate — §3.2's guarantee is w.r.t. the application's
  // true obsolescence semantics).
  obs::RelationPtr relation;
  obs::RelationPtr truth;
  switch (sc.relation) {
    case RelationKind::empty:
      relation = truth = std::make_shared<obs::EmptyRelation>();
      break;
    case RelationKind::item_tag:
      relation = truth = std::make_shared<obs::ItemTagRelation>();
      break;
    case RelationKind::k_enum:
      relation = std::make_shared<obs::KEnumRelation>();
      break;
    case RelationKind::enumeration:
      relation = std::make_shared<obs::EnumerationRelation>();
      break;
  }
  if (truth == nullptr) {
    std::vector<std::vector<std::uint64_t>> planned_items(sc.n);
    for (std::uint32_t i = 0; i < sc.n; ++i) {
      planned_items[i].reserve(sc.sends[i].size());
      for (const auto& p : sc.sends[i]) planned_items[i].push_back(p.item);
    }
    truth = std::make_shared<PlannedItemTruth>(std::move(planned_items));
  }
  core::SpecChecker checker(truth);

  core::Group::Config cfg;
  cfg.size = sc.n;
  cfg.node.relation = relation;
  cfg.node.purge_delivery_queue = sc.purging;
  cfg.node.purge_outgoing = sc.purging;
  cfg.node.delivery_capacity = sc.delivery_capacity;
  cfg.node.out_capacity = sc.out_capacity;
  switch (sc.fd) {
    case FdBackend::oracle:
      cfg.fd_kind = core::Group::FdKind::oracle;
      break;
    case FdBackend::heartbeat:
      cfg.fd_kind = core::Group::FdKind::heartbeat;
      break;
    case FdBackend::swim:
      cfg.fd_kind = core::Group::FdKind::swim;
      // Scale the protocol to the scenario horizon so a real crash is
      // probed, suspected and confirmed well inside the settle window
      // even in a 6-member group.  Same rng-stream discipline as every
      // other backend: the seed pins all draws.
      cfg.swim.period = Duration::millis(40);
      cfg.swim.direct_timeout = Duration::millis(12);
      cfg.swim.suspicion_periods = 2;
      cfg.swim.seed = spec.seed;
      break;
  }
  cfg.oracle_delay = sc.oracle_delay;
  cfg.membership.suspicion_grace = sc.suspicion_grace;
  cfg.auto_membership = true;
  cfg.observer = &checker;

  // Injector declared before the group: the transport is torn down first,
  // so the hook can never dangle.
  net::PlannedFaultInjector injector(sc.faults);
  core::Group group(sim, cfg);
  group.network().set_fault_injector(&injector);
  net::schedule_crashes(sim, group.network(), sc.faults);

  // Consumers: everyone drains; at most one node is rate-limited.
  std::vector<std::unique_ptr<workload::InstantConsumer>> instant;
  std::unique_ptr<workload::RateConsumer> slow;
  const std::size_t slow_at = sc.slow_consumer ? sc.n - 1 : sc.n;
  for (std::size_t i = 0; i < sc.n; ++i) {
    if (i == slow_at) {
      slow = std::make_unique<workload::RateConsumer>(sim, group.node(i),
                                                      sc.slow_rate);
      slow->start();
    } else {
      instant.push_back(
          std::make_unique<workload::InstantConsumer>(sim, group.node(i)));
      instant.back()->start();
    }
  }

  std::vector<std::unique_ptr<Driver>> drivers;
  for (std::size_t i = 0; i < sc.n; ++i) {
    drivers.push_back(std::make_unique<Driver>(sim, group, i, sc.sends[i],
                                               sc));
    drivers.back()->start();
  }

  if (sc.reconfigure) {
    sim.schedule_at(sc.reconfigure_at, [&group, &sc] {
      core::Node& node = group.node(sc.reconfigurer);
      if (!node.excluded() &&
          !group.network().is_crashed(group.pid(sc.reconfigurer))) {
        node.request_view_change({});
      }
    });
  }
  if (sc.leave) {
    sim.schedule_at(sc.leave_at, [&group, &sc] {
      core::Node& node = group.node(sc.leaver);
      if (!node.excluded() &&
          !group.network().is_crashed(group.pid(sc.leaver))) {
        node.request_view_change({group.pid(sc.leaver)});
      }
    });
  }

  // Latest scheduled disturbance: quiescence cannot begin before it.
  TimePoint settle = TimePoint::origin() + sc.horizon;
  for (const auto& f : sc.faults.faults) {
    settle = std::max(settle, std::max(f.start, f.end));
  }
  if (sc.leave) settle = std::max(settle, sc.leave_at);
  if (sc.reconfigure) settle = std::max(settle, sc.reconfigure_at);

  const auto is_survivor = [&](std::size_t i) {
    return !group.network().is_crashed(group.pid(i)) &&
           !group.node(i).excluded();
  };
  // A node is *stranded* when its current view has no alive strict
  // majority: no view change can ever decide there (a blocked one stays
  // blocked; the membership guard rightly refuses to start one), so
  // backlogs towards dead members never clear and producers stay throttled.
  // A primary-partition stack legitimately halts in that state, so
  // stranded nodes are exempt from the progress conditions below and the
  // checker applies only the unconditional (quorum-free) guarantees.
  const auto stranded = [&](std::size_t i) {
    const core::View& v = group.node(i).current_view();
    std::size_t alive = 0;
    for (const auto p : v.members()) {
      if (!group.network().is_crashed(p)) ++alive;
    }
    return 2 * alive <= v.size();
  };
  const auto quiesced = [&] {
    if (sim.now() <= settle) return false;
    for (std::size_t i = 0; i < sc.n; ++i) {
      if (!drivers[i]->done() && !stranded(i)) return false;
    }
    for (std::size_t i = 0; i < sc.n; ++i) {
      if (!is_survivor(i)) continue;
      if (group.node(i).delivery_queue_length() != 0) return false;
      if (stranded(i)) continue;  // halted below quorum: nothing will move
      if (group.node(i).blocked()) return false;
      for (std::size_t j = 0; j < sc.n; ++j) {
        if (i == j || group.network().is_crashed(group.pid(j)) ||
            stranded(j)) {
          continue;
        }
        if (group.network().data_backlog(group.pid(i), group.pid(j)) != 0) {
          return false;
        }
      }
    }
    return true;
  };

  // Drive to quiescence.  The generous deadline leaves room for adaptive
  // heartbeat timeouts and slow consumers; virtual seconds are cheap.
  const TimePoint deadline = settle + Duration::seconds(40.0);
  int stable = 0;
  while (sim.now() < deadline) {
    sim.run_until(sim.now() + Duration::millis(500));
    // Two consecutive quiet samples: anything in flight at the first one
    // (a consensus decision, a deferred install) lands within the extra
    // half-second of virtual time.
    if (quiesced()) {
      if (++stable >= 2) break;
    } else {
      stable = 0;
    }
  }
  ScenarioOutcome outcome;
  outcome.quiesced = quiesced();

  // Close every log: pull whatever the consumers have not drained yet.
  for (std::size_t i = 0; i < sc.n; ++i) group.drain(i);

  outcome.violations = checker.verify();
  if (sc.relation == RelationKind::empty) {
    const auto strict = checker.verify_strict_vs();
    outcome.violations.insert(outcome.violations.end(), strict.begin(),
                              strict.end());
  }
  if (outcome.quiesced) {
    std::vector<net::ProcessId> alive;
    for (std::size_t i = 0; i < sc.n; ++i) {
      if (!group.network().is_crashed(group.pid(i))) {
        alive.push_back(group.pid(i));
      }
    }
    const auto quiet = checker.verify_quiescence(alive);
    outcome.violations.insert(outcome.violations.end(), quiet.begin(),
                              quiet.end());
  } else {
    outcome.violations.push_back(
        "run did not quiesce before the deadline (liveness violated)");
  }

  outcome.group_size = sc.n;
  outcome.faults_active = sc.faults.faults.size();
  outcome.faults_total = sc.faults_total;
  outcome.planned_sends = sc.planned_total;
  outcome.multicasts = checker.total_multicasts();
  outcome.deliveries = checker.total_deliveries();
  outcome.sim_events = sim.executed();
  outcome.net_stats = group.network().stats();
  outcome.summary = summarize(sc);
  return outcome;
}

ScenarioSpec ScenarioExplorer::shrink(const ScenarioSpec& failing) const {
  const auto fails = [this](const ScenarioSpec& trial) {
    return !run(trial).violations.empty();
  };

  ScenarioSpec best = failing;
  const Scenario full = make_scenario(failing);

  // Restrict the mask to real entries so repro lines stay readable.
  if (full.faults_total < 64) {
    best.fault_mask &= (1ULL << full.faults_total) - 1;
  }

  // Pass 1: greedy fault removal to a fixpoint.  One bit at a time — each
  // fault's randomness is private (id-keyed stream), so removals compose.
  const auto drop_faults = [&] {
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t bit = 0; bit < full.faults_total && bit < 64; ++bit) {
        const std::uint64_t flag = 1ULL << bit;
        if ((best.fault_mask & flag) == 0) continue;
        ScenarioSpec trial = best;
        trial.fault_mask &= ~flag;
        if (fails(trial)) {
          best = trial;
          progress = true;
        }
      }
    }
  };
  drop_faults();

  // Pass 2: bisect the per-node workload prefix.  hi always names a failing
  // limit, so the result fails even where failure is not monotone in the
  // message count.
  std::uint32_t max_planned = 0;
  for (const auto& plan : full.sends) {
    max_planned = std::max(max_planned,
                           static_cast<std::uint32_t>(plan.size()));
  }
  // Capping at max_planned truncates nothing, so this spec is
  // scenario-identical to `best` and known to fail.
  std::uint32_t hi = std::min(best.message_limit, max_planned);
  best.message_limit = hi;
  std::uint32_t lo = 0;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    ScenarioSpec trial = best;
    trial.message_limit = mid;
    if (fails(trial)) {
      hi = mid;
      best.message_limit = mid;
    } else {
      lo = mid + 1;
    }
  }

  // Pass 3: the smaller workload may have made more faults redundant.
  drop_faults();
  return best;
}

ScenarioExplorer::Exploration ScenarioExplorer::explore(
    std::uint64_t seed) const {
  Exploration exploration;
  exploration.spec.seed = seed;
  exploration.spec.relation_pin = options_.relation_pin;
  exploration.spec.fd_pin = options_.fd_pin;
  exploration.spec.hostile = options_.hostile;
  exploration.spec.loss_permille = options_.loss_permille;
  exploration.outcome = run(exploration.spec);
  if (!exploration.outcome.violations.empty()) {
    exploration.shrunk = shrink(exploration.spec);
    exploration.shrunk_outcome = run(*exploration.shrunk);
  }
  return exploration;
}

}  // namespace svs::sim
