// Fault-injection hooks on the Transport surface (DESIGN.md §7).
//
// A FaultInjector is consulted by the link layer at two points:
//
//   * on_send      — once per enqueued message per destination, before the
//     message enters the link queue.  It returns how many copies to enqueue
//     (1 = normal, 2+ = duplication, 0 = out-of-model silent drop) and how
//     much extra propagation delay to add.  Partitions are expressed here
//     as delay-until-heal: messages sent during the outage window are held
//     and arrive after it, which preserves the reliable-FIFO channel model
//     (the link layer already clamps ready times monotone per lane).
//   * receive_paused_until — before a data-lane delivery attempt.  A
//     non-empty result stalls every link into that receiver until the
//     returned time (backpressure, not loss): the network-visible face of a
//     consumer that completely stops.
//
// Both Transport backends honor the hook: net::Network consults it
// directly, and net::UdpTransport forwards to its inner Network, so an
// injected fault schedule produces byte-identical runs on both.
//
// PlannedFaultInjector interprets a sim::FaultPlan.  Each fault draws from
// its own rng stream (seeded from (plan.seed, fault.id)), so masking plan
// entries out — the shrinker's first move — never perturbs the randomness
// of the faults that remain.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.hpp"
#include "net/types.hpp"
#include "sim/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace svs::sim {
class Simulator;
}

namespace svs::net {

class Transport;

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  struct SendFault {
    /// Extra propagation delay; FIFO order is preserved by the link layer.
    sim::Duration extra_delay = sim::Duration::zero();
    /// Copies to enqueue: 1 = deliver normally, 2+ = duplicate, 0 = drop
    /// (out-of-model: breaks the reliable-channel assumption).
    std::uint32_t copies = 1;
    /// Lost transmissions recovered by retransmission (FaultKind::loss):
    /// their recovery latency is already folded into extra_delay; this count
    /// only feeds NetworkStats::injected_losses.
    std::uint32_t losses = 0;
  };

  /// Consulted once per (message, destination) at enqueue time.
  virtual SendFault on_send(ProcessId from, ProcessId to, Lane lane,
                            const Message& message, sim::TimePoint now) = 0;

  /// If `to` must not accept data-lane traffic at `now`, the time the pause
  /// ends (the link layer stalls and re-attempts then).
  [[nodiscard]] virtual std::optional<sim::TimePoint> receive_paused_until(
      ProcessId to, sim::TimePoint now) = 0;
};

/// Applies the link-level faults of a sim::FaultPlan (jitter, partitions,
/// duplication, receiver pauses, hostile drops).  Crash faults are not the
/// link layer's business — schedule them with schedule_crashes().
///
/// Stateful (per-fault rngs and drop counters): construct a fresh injector
/// per run to replay a plan deterministically.
class PlannedFaultInjector final : public FaultInjector {
 public:
  explicit PlannedFaultInjector(sim::FaultPlan plan);

  SendFault on_send(ProcessId from, ProcessId to, Lane lane,
                    const Message& message, sim::TimePoint now) override;
  [[nodiscard]] std::optional<sim::TimePoint> receive_paused_until(
      ProcessId to, sim::TimePoint now) override;

  [[nodiscard]] const sim::FaultPlan& plan() const { return plan_; }

 private:
  struct Armed {
    sim::FaultSpec spec;
    sim::Rng rng;                  // this fault's private stream
    std::uint64_t data_seen = 0;   // drop_one: data messages seen on link
  };

  sim::FaultPlan plan_;
  std::vector<Armed> armed_;
};

/// Schedules the plan's crash faults on the simulator: at each crash spec's
/// time the transport crash-stops the process.  The transport must outlive
/// the scheduled events (harnesses own both for the whole run).
void schedule_crashes(sim::Simulator& simulator, Transport& transport,
                      const sim::FaultPlan& plan);

}  // namespace svs::net
