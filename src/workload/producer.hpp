// Trace-driven producer with flow-control accounting.
//
// §5.3: "A producer injects traffic in one of the nodes according to the
// item update pattern recorded experimentally" — and the metric of
// Fig 4(a)/5(a) is how long the producer is *blocked by flow control*.
// Each trace message is injected at its scheduled time, or as soon as the
// protocol accepts it if it was blocked; the time between first refusal and
// eventual acceptance accumulates as blocked time.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "core/node.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace svs::workload {

class TraceProducer {
 public:
  TraceProducer(sim::Simulator& simulator, core::Node& node,
                const Trace& trace);

  TraceProducer(const TraceProducer&) = delete;
  TraceProducer& operator=(const TraceProducer&) = delete;

  /// Schedules the first injection.  `on_done` (optional) fires after the
  /// last message is accepted.
  void start(std::function<void()> on_done = nullptr);

  [[nodiscard]] std::size_t sent() const { return next_; }
  [[nodiscard]] bool done() const { return next_ >= trace_.messages().size(); }
  [[nodiscard]] sim::Duration blocked_time() const { return blocked_total_; }
  [[nodiscard]] bool currently_blocked() const {
    return blocked_since_.has_value();
  }

  /// Fraction of elapsed time (start -> now/done) spent blocked — the
  /// "producer idle" percentage of Fig 4(a).
  [[nodiscard]] double idle_fraction() const;

 private:
  void pump();

  sim::Simulator& sim_;
  core::Node& node_;
  const Trace& trace_;

  std::size_t next_ = 0;
  sim::TimePoint started_{};
  sim::TimePoint finished_{};
  std::optional<sim::TimePoint> blocked_since_;
  sim::Duration blocked_total_ = sim::Duration::zero();
  std::function<void()> on_done_;
  bool started_flag_ = false;
  // Pending time-based wakeup; pump() is also re-entered by the node's
  // unblocked callback, so the wakeup must be deduplicated (due times are
  // non-decreasing along the trace, so one pending wakeup is always the
  // right one).
  sim::EventId wakeup_{};
};

}  // namespace svs::workload
