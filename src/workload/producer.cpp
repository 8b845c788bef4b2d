#include "workload/producer.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace svs::workload {

TraceProducer::TraceProducer(sim::Simulator& simulator, core::Node& node,
                             const Trace& trace)
    : sim_(simulator), node_(node), trace_(trace) {}

void TraceProducer::start(std::function<void()> on_done) {
  SVS_REQUIRE(!started_flag_, "producer already started");
  started_flag_ = true;
  on_done_ = std::move(on_done);
  started_ = sim_.now();
  node_.set_unblocked_callback([this] { pump(); });
  if (!trace_.messages().empty()) {
    const sim::TimePoint first = started_ + (trace_.messages()[0].at -
                                             sim::TimePoint::origin());
    sim_.schedule_at(first, [this] { pump(); });
  } else {
    finished_ = sim_.now();
    if (on_done_) on_done_();
  }
}

void TraceProducer::pump() {
  while (next_ < trace_.messages().size()) {
    const TraceMessage& tm = trace_.messages()[next_];
    const sim::TimePoint due = started_ + (tm.at - sim::TimePoint::origin());
    if (sim_.now() < due) {
      // Not yet time for this message; try again at its deadline (unless a
      // wakeup is already pending — unblocked callbacks re-enter pump()).
      if (!wakeup_.valid()) {
        wakeup_ = sim_.schedule_at(due, [this] {
          wakeup_ = sim::EventId{};
          pump();
        });
      }
      return;
    }
    const auto seq = node_.multicast(tm.payload, tm.annotation);
    if (!seq.has_value()) {
      // Flow-controlled: start (or continue) accounting blocked time.
      if (!blocked_since_.has_value()) blocked_since_ = sim_.now();
      return;  // the unblocked callback re-enters pump()
    }
    SVS_ASSERT(*seq == tm.seq,
               "trace expects to be the node's only multicast source");
    if (blocked_since_.has_value()) {
      blocked_total_ += sim_.now() - *blocked_since_;
      blocked_since_.reset();
    }
    ++next_;
  }
  if (finished_ == sim::TimePoint{} && next_ >= trace_.messages().size()) {
    finished_ = sim_.now();
    if (on_done_) on_done_();
  }
}

double TraceProducer::idle_fraction() const {
  const sim::TimePoint end =
      done() && finished_ != sim::TimePoint{} ? finished_ : sim_.now();
  const auto elapsed = end - started_;
  if (elapsed <= sim::Duration::zero()) return 0.0;
  auto blocked = blocked_total_;
  if (blocked_since_.has_value()) blocked += end - *blocked_since_;
  return static_cast<double>(blocked.as_micros()) /
         static_cast<double>(elapsed.as_micros());
}

}  // namespace svs::workload
