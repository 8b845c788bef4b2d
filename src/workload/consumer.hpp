// Consumers model the application side of §5.3's simulation: "all processes
// except the slow one consume messages instantly; the time it takes for the
// slower process to consume each message can be varied".
#pragma once

#include <cstdint>
#include <functional>

#include "core/node.hpp"
#include "sim/simulator.hpp"

namespace svs::workload {

/// Drains the node's queue as soon as anything becomes deliverable.
class InstantConsumer {
 public:
  InstantConsumer(sim::Simulator& simulator, core::Node& node);

  void start();

  /// Invoked for every delivery (application hook).
  void set_sink(std::function<void(const core::Delivery&)> sink) {
    sink_ = std::move(sink);
  }

  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }

 private:
  void drain();

  sim::Simulator& sim_;
  core::Node& node_;
  std::function<void(const core::Delivery&)> sink_;
  std::uint64_t consumed_ = 0;
};

/// Consumes at a fixed rate: after taking a delivery it is busy for
/// 1/rate seconds.  stop()/resume() model a full performance perturbation
/// (the receiver that "completely stops to process messages" of Fig 5(b)).
class RateConsumer {
 public:
  RateConsumer(sim::Simulator& simulator, core::Node& node,
               double msgs_per_second);

  void start();
  void stop();
  void resume();

  void set_sink(std::function<void(const core::Delivery&)> sink) {
    sink_ = std::move(sink);
  }

  [[nodiscard]] std::uint64_t consumed() const { return consumed_; }
  [[nodiscard]] bool stopped() const { return stopped_; }

 private:
  void take_one();

  sim::Simulator& sim_;
  core::Node& node_;
  double rate_;
  bool stopped_ = false;
  bool waiting_ = false;  // queue was empty; deliverable callback re-arms
  sim::EventId pending_{};
  std::function<void(const core::Delivery&)> sink_;
  std::uint64_t consumed_ = 0;
};

}  // namespace svs::workload
