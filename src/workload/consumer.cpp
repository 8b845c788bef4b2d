#include "workload/consumer.hpp"

#include "util/contracts.hpp"

namespace svs::workload {

InstantConsumer::InstantConsumer(sim::Simulator& simulator, core::Node& node)
    : sim_(simulator), node_(node) {}

void InstantConsumer::start() {
  node_.set_deliverable_callback([this] { drain(); });
  drain();
}

void InstantConsumer::drain() {
  while (auto d = node_.try_deliver()) {
    ++consumed_;
    if (sink_) sink_(*d);
  }
}

RateConsumer::RateConsumer(sim::Simulator& simulator, core::Node& node,
                           double msgs_per_second)
    : sim_(simulator), node_(node), rate_(msgs_per_second) {
  SVS_REQUIRE(msgs_per_second > 0, "consumption rate must be positive");
}

void RateConsumer::start() {
  node_.set_deliverable_callback([this] {
    if (stopped_ || pending_.valid() || !waiting_) return;
    waiting_ = false;
    take_one();
  });
  take_one();
}

void RateConsumer::take_one() {
  if (stopped_) return;
  const auto d = node_.try_deliver();
  if (!d.has_value()) {
    waiting_ = true;  // re-armed by the deliverable callback
    return;
  }
  ++consumed_;
  if (sink_) sink_(*d);
  // Busy for the per-message service time, then take the next one.
  pending_ = sim_.schedule_after(sim::Duration::seconds(1.0 / rate_), [this] {
    pending_ = sim::EventId{};
    take_one();
  });
}

void RateConsumer::stop() {
  stopped_ = true;
  if (pending_.valid()) {
    sim_.cancel(pending_);
    pending_ = sim::EventId{};
  }
}

void RateConsumer::resume() {
  SVS_REQUIRE(stopped_, "resume() without stop()");
  stopped_ = false;
  waiting_ = false;
  take_one();
}

}  // namespace svs::workload
