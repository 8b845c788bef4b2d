// Instrumentation that sits around the library's public interfaces.
//
//   * Probe — one process's per-layer histograms, per-message-type byte
//     counts and the stamps of sampled puts.
//   * TimedTransport — a net::Transport decorator: times send/multicast,
//     counts messages and bytes per MessageType, and wraps each endpoint at
//     attach() so every Node::on_message is timed too.
//   * Replica — the bench's consumer: try_deliver, then KvStore::apply,
//     then the visibility bookkeeping.  Instant, or rate-limited like
//     workload::RateConsumer.
//
// Untraced runs use Replica with the probe off and no decorator, so they
// pay one clock read per delivery (the visibility stamp) and nothing else.
// Traced runs count every call and time one call in kTimeOneIn of each
// kind: a closed-loop put costs about 10 µs and makes some 35 calls, so
// reading the clock around all of them would slow it by a quarter.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "app/kv_store.hpp"
#include "core/node.hpp"
#include "histogram.hpp"
#include "net/transport.hpp"
#include "wire.hpp"
#include "workload/item_op.hpp"

namespace svs::bench_service {

/// The value (= schedule index) a DATA message's ItemOp writes, if any.
inline std::optional<std::uint64_t> item_value(const net::Message& m) {
  if (m.type() != net::MessageType::data) return std::nullopt;
  const auto& payload = static_cast<const core::DataMessage&>(m).payload();
  if (payload == nullptr ||
      payload->payload_kind() != workload::ItemOp::kPayloadKind) {
    return std::nullopt;
  }
  return static_cast<const workload::ItemOp&>(*payload).value();
}

/// Stamps of one sampled put (0 = not reached).  At the primary: due,
/// put() called, put() returned, multicast of its DATA returned.  At a
/// backup: first on_message, try_deliver called, try_deliver returned,
/// apply returned.
using Stamps = std::array<std::int64_t, 4>;

inline constexpr std::size_t kMessageTypes = 16;
inline constexpr std::uint64_t kTimeOneIn = 16;

/// Calls of one kind: all counted, one in kTimeOneIn timed (ns).
struct Span {
  Histogram ns;
  std::uint64_t calls = 0;

  /// Counts a call; true when this one is to be timed.
  bool timed() { return calls++ % kTimeOneIn == 0; }
  void merge(const Span& o) {
    ns.merge(o.ns);
    calls += o.calls;
  }
  template <class A>
  void io(A& ar) {
    ar(ns, calls);
  }
};

struct Probe {
  bool traced = false;
  const std::vector<bool>* sampled_puts = nullptr;  // by put index

  Span put, apply, on_message, try_deliver, multicast, send, pump, run;
  // Sizes, sampled with the timed calls.
  Histogram pump_datagrams, outbox_depth, queue_len, retained;
  std::array<std::uint64_t, kMessageTypes> msgs{}, bytes{};
  std::map<std::uint64_t, Stamps> at_primary;  // put -> stamps
  std::map<std::uint64_t, Stamps> at_backup;   // backup_key -> stamps

  static std::uint64_t backup_key(std::uint64_t put, std::uint32_t member) {
    return put * 8 + member;
  }
  [[nodiscard]] bool sampled(std::uint64_t put) const {
    return traced && put < sampled_puts->size() && (*sampled_puts)[put];
  }
  void stamp_primary(std::uint64_t put, std::size_t stage, std::int64_t t) {
    auto& s = at_primary[put];
    if (s[stage] == 0) s[stage] = t;
  }
  void stamp_backup(std::uint64_t put, std::uint32_t member, std::size_t stage,
                    std::int64_t t) {
    auto& s = at_backup[backup_key(put, member)];
    if (s[stage] == 0) s[stage] = t;
  }

  void merge(const Probe& o) {
    for (auto [mine, theirs] :
         {std::pair{&put, &o.put}, {&apply, &o.apply},
          {&on_message, &o.on_message}, {&try_deliver, &o.try_deliver},
          {&multicast, &o.multicast}, {&send, &o.send}, {&pump, &o.pump},
          {&run, &o.run}}) {
      mine->merge(*theirs);
    }
    for (auto [mine, theirs] :
         {std::pair{&pump_datagrams, &o.pump_datagrams},
          {&outbox_depth, &o.outbox_depth}, {&queue_len, &o.queue_len},
          {&retained, &o.retained}}) {
      mine->merge(*theirs);
    }
    for (std::size_t i = 0; i < kMessageTypes; ++i) {
      msgs[i] += o.msgs[i];
      bytes[i] += o.bytes[i];
    }
    at_primary.insert(o.at_primary.begin(), o.at_primary.end());
    at_backup.insert(o.at_backup.begin(), o.at_backup.end());
  }

  template <class A>
  void io(A& ar) {
    ar(put, apply, on_message, try_deliver, multicast, send, pump, run,
       pump_datagrams, outbox_depth, queue_len, retained, msgs, bytes,
       at_primary, at_backup);
  }
};

/// Transport decorator for the traced run.  Forwards everything to the
/// wrapped transport; the wrapped one keeps doing all the work.
class TimedTransport final : public net::Transport {
 public:
  TimedTransport(net::Transport& inner, Probe& probe)
      : inner_(inner), probe_(probe) {}

  void attach(net::ProcessId id, net::Endpoint& endpoint) override {
    endpoints_.push_back(std::make_unique<TimedEndpoint>(endpoint, probe_, id));
    inner_.attach(id, *endpoints_.back());
  }
  void send(net::ProcessId from, net::ProcessId to, net::MessagePtr message,
            net::Lane lane) override {
    count(*message, 1);
    if (!probe_.send.timed()) {
      inner_.send(from, to, std::move(message), lane);
      return;
    }
    const auto t0 = now_ns();
    inner_.send(from, to, std::move(message), lane);
    probe_.send.ns.record(now_ns() - t0);
  }
  void multicast(net::ProcessId from,
                 std::span<const net::ProcessId> destinations,
                 const net::MessagePtr& message, net::Lane lane,
                 bool skip_self) override {
    std::size_t copies = destinations.size();
    if (skip_self) {
      for (const auto d : destinations) copies -= d == from ? 1 : 0;
    }
    count(*message, copies);
    const auto put = item_value(*message);
    const bool stamp = put && probe_.sampled(*put);
    const bool timed = probe_.multicast.timed();
    const auto t0 = timed ? now_ns() : 0;
    inner_.multicast(from, destinations, message, lane, skip_self);
    if (!timed && !stamp) return;
    const auto t1 = now_ns();
    if (timed) probe_.multicast.ns.record(t1 - t0);
    if (stamp) probe_.stamp_primary(*put, 3, t1);
  }

  void crash(net::ProcessId id) override { inner_.crash(id); }
  void subscribe_crash(
      std::function<void(net::ProcessId, sim::TimePoint)> observer) override {
    inner_.subscribe_crash(std::move(observer));
  }
  [[nodiscard]] bool is_crashed(net::ProcessId id) const override {
    return inner_.is_crashed(id);
  }
  [[nodiscard]] std::optional<sim::TimePoint> crash_time(
      net::ProcessId id) const override {
    return inner_.crash_time(id);
  }
  void resume(net::ProcessId to) override { inner_.resume(to); }
  void subscribe_backlog_drain(net::ProcessId from,
                               std::function<void()> observer) override {
    inner_.subscribe_backlog_drain(from, std::move(observer));
  }
  [[nodiscard]] std::size_t data_backlog(net::ProcessId from,
                                         net::ProcessId to) const override {
    return inner_.data_backlog(from, to);
  }
  std::size_t purge_outgoing(net::ProcessId from, VictimRef victim) override {
    return inner_.purge_outgoing(from, victim);
  }
  std::size_t purge_outgoing_window(net::ProcessId from, net::ProcessId to,
                                    std::uint64_t floor_key,
                                    std::uint64_t below_key,
                                    VictimRef victim) override {
    return inner_.purge_outgoing_window(from, to, floor_key, below_key, victim);
  }
  std::size_t count_outgoing_window(net::ProcessId from, net::ProcessId to,
                                    std::uint64_t floor_key,
                                    std::uint64_t below_key,
                                    VictimRef pred) override {
    return inner_.count_outgoing_window(from, to, floor_key, below_key, pred);
  }
  std::size_t drop_outgoing(net::ProcessId from, VictimRef victim) override {
    return inner_.drop_outgoing(from, victim);
  }
  void set_link_slowdown(net::ProcessId from, net::ProcessId to,
                         sim::Duration extra) override {
    inner_.set_link_slowdown(from, to, extra);
  }
  void set_fault_injector(net::FaultInjector* injector) override {
    inner_.set_fault_injector(injector);
  }
  void note_gossip_bytes_saved(std::uint64_t bytes) override {
    inner_.note_gossip_bytes_saved(bytes);
  }
  [[nodiscard]] const net::NetworkStats& stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] std::uint32_t size() const override { return inner_.size(); }

 private:
  class TimedEndpoint final : public net::Endpoint {
   public:
    TimedEndpoint(net::Endpoint& inner, Probe& probe, net::ProcessId self)
        : inner_(inner), probe_(probe), self_(self) {}
    bool on_message(net::ProcessId from, const net::MessagePtr& message,
                    net::Lane lane) override {
      const auto put = item_value(*message);
      const bool stamp = put && probe_.sampled(*put);
      const bool timed = probe_.on_message.timed();
      const auto t0 = timed || stamp ? now_ns() : 0;
      const bool accepted = inner_.on_message(from, message, lane);
      if (timed) probe_.on_message.ns.record(now_ns() - t0);
      if (stamp) probe_.stamp_backup(*put, self_.value(), 0, t0);
      return accepted;
    }

   private:
    net::Endpoint& inner_;
    Probe& probe_;
    net::ProcessId self_;
  };

  void count(const net::Message& m, std::size_t copies) {
    const auto t = static_cast<std::size_t>(m.type()) % kMessageTypes;
    probe_.msgs[t] += copies;
    probe_.bytes[t] += copies * m.wire_size();
  }

  net::Transport& inner_;
  Probe& probe_;
  std::vector<std::unique_ptr<TimedEndpoint>> endpoints_;
};

/// The bench's consumer for one member.  `on_item(value, applied_ns)` sees
/// every applied ItemOp after KvStore::apply returned.
class Replica {
 public:
  /// rate <= 0: drain as soon as anything is deliverable; otherwise take
  /// one delivery, stay busy 1/rate seconds, repeat.
  Replica(sim::Simulator& simulator, core::Node& node, app::KvStore& store,
          Probe& probe, double rate,
          std::function<void(std::uint64_t, std::int64_t)> on_item)
      : sim_(simulator),
        node_(node),
        store_(store),
        probe_(probe),
        rate_(rate),
        on_item_(std::move(on_item)) {}

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  void start() {
    if (rate_ <= 0) {
      node_.set_deliverable_callback([this] { drain(); });
      drain();
      return;
    }
    node_.set_deliverable_callback([this] {
      if (waiting_) {
        waiting_ = false;
        take_paced();
      }
    });
    take_paced();
  }

 private:
  bool take() {
    const bool traced = probe_.traced;
    const bool deliver_timed = traced && probe_.try_deliver.timed();
    if (deliver_timed) {
      probe_.queue_len.record(
          static_cast<std::int64_t>(node_.delivery_queue_length()));
      probe_.retained.record(
          static_cast<std::int64_t>(node_.delivered_retained()));
    }
    // A sampled put's stage boundary, so read whenever tracing.
    const std::int64_t t0 = traced ? now_ns() : 0;
    auto delivery = node_.try_deliver();
    if (!delivery.has_value()) return false;
    std::optional<std::uint64_t> put;
    if (const auto* data = std::get_if<core::DataDelivery>(&*delivery)) {
      put = item_value(*data->message);
    }
    const bool stamp = put && probe_.sampled(*put);
    const bool apply_timed = traced && probe_.apply.timed();
    const std::int64_t t1 = deliver_timed || apply_timed || stamp ? now_ns() : 0;
    store_.apply(*delivery);
    const std::int64_t t2 = now_ns();
    if (deliver_timed) probe_.try_deliver.ns.record(t1 - t0);
    if (apply_timed) probe_.apply.ns.record(t2 - t1);
    if (stamp) {
      const auto self = node_.id().value();
      probe_.stamp_backup(*put, self, 1, t0);
      probe_.stamp_backup(*put, self, 2, t1);
      probe_.stamp_backup(*put, self, 3, t2);
    }
    if (put) on_item_(*put, t2);
    return true;
  }

  void drain() {
    while (take()) {
    }
  }

  void take_paced() {
    if (!take()) {
      waiting_ = true;  // re-armed by the deliverable callback
      return;
    }
    sim_.schedule_after(sim::Duration::seconds(1.0 / rate_),
                        [this] { take_paced(); });
  }

  sim::Simulator& sim_;
  core::Node& node_;
  app::KvStore& store_;
  Probe& probe_;
  double rate_;
  std::function<void(std::uint64_t, std::int64_t)> on_item_;
  bool waiting_ = false;
};

}  // namespace svs::bench_service
