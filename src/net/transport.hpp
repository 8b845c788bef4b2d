// Backend-agnostic transport interface (DESIGN.md §6).
//
// Everything above net/ — the protocol core, consensus, failure detectors,
// the group harness — talks to this interface, never to a concrete backend.
// Two backends implement it:
//
//   * net::Network   (network.hpp)  — the deterministic simulated fabric:
//     n×n FIFO links with propagation delay, backpressure and purgeable
//     outgoing queues, driven by the virtual-time simulator.
//   * net::UdpTransport (udp_transport.hpp) — the same link discipline
//     (it contains a net::Network), but every delivery crosses the kernel
//     as an *encoded* UDP datagram (net::Codec) under a reliable lane: the
//     receiver operates on a freshly decoded message, never on the
//     sender's object.  This is what proves nothing in core/ depends on
//     in-memory aliasing, and what makes the byte counters measurements
//     instead of estimates.  Distributed mode (tools/svs_proc) runs one
//     member per OS process over the same backend.
//
// The victim predicates of the purge operations cross the virtual boundary
// as util::FunctionRef (two words, non-owning, no allocation).
//
// Time: the whole stack runs on the virtual clock, so crash timestamps are
// sim::TimePoints regardless of backend.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "net/message.hpp"
#include "net/types.hpp"
#include "sim/time.hpp"
#include "util/function_ref.hpp"

namespace svs::net {

class FaultInjector;  // fault_injector.hpp

/// Receives messages from the network.
class Endpoint {
 public:
  virtual ~Endpoint() = default;

  /// Handles an arriving message.  May return false only for Lane::data,
  /// meaning "my delivery buffers are full, retry later"; the link then
  /// stalls until resume() is signalled for this receiver.
  virtual bool on_message(ProcessId from, const MessagePtr& message,
                          Lane lane) = 0;
};

/// Aggregate counters (per transport).  Byte counters are *measured*: they
/// count encoded wire bytes, and `wire_size()` is the codec's own count
/// (net/codec.cpp), so the same numbers come out of the simulated and the
/// byte-moving backends.
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_to_crashed = 0;
  std::uint64_t purged_outgoing = 0;
  std::uint64_t refusals = 0;  // data-lane stall events
  /// Queued messages examined by windowed outgoing purges (the sender-side
  /// analogue of DeliveryQueue purge_scan_steps; bounded by coverage_floor).
  std::uint64_t purge_window_scanned = 0;
  /// Wire bytes saved by delta stability gossip vs full snapshots.
  std::uint64_t gossip_bytes_saved = 0;
  /// Encoded bytes enqueued towards receivers (per destination: a multicast
  /// to d destinations counts d * encoded size).
  std::uint64_t bytes_sent = 0;
  /// Encoded bytes of messages actually accepted by receivers.
  std::uint64_t bytes_delivered = 0;
  /// Encoded bytes reclaimed from outgoing buffers by semantic purging —
  /// the sender-side wire-cost saving the paper's §4.2 argues about.
  std::uint64_t bytes_purged = 0;
  /// Fault injection (DESIGN.md §7): extra copies enqueued by duplication
  /// faults, messages silently dropped by out-of-model drop faults, and
  /// delivery attempts stalled by receiver-pause windows.
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_pauses = 0;
  /// Lost transmissions modeled by in-model loss faults (each one costs a
  /// retransmission delay; the message still arrives — reliable channels).
  std::uint64_t injected_losses = 0;
};

/// The send/multicast/attach surface of a network backend.
class Transport {
 public:
  /// Non-owning victim predicate; valid only for the duration of the call.
  using VictimRef = util::FunctionRef<bool(const MessagePtr&)>;

  virtual ~Transport() = default;

  /// Registers the endpoint for a process.  Must be called before any send
  /// involving `id`.  Must not be called from inside a delivery, purge or
  /// drain callback (backends may re-stride internal tables).
  virtual void attach(ProcessId id, Endpoint& endpoint) = 0;

  /// Enqueues a message from -> to.  No-op if the sender has crashed.
  /// Self-sends are allowed.
  virtual void send(ProcessId from, ProcessId to, MessagePtr message,
                    Lane lane) = 0;

  /// Fan-out send: enqueues `message` from -> every destination, in order.
  /// With `skip_self` (the data fan-out convention) `from` itself is
  /// skipped; without it a loopback copy is enqueued in the destination's
  /// position (the INIT/PRED broadcast convention).
  ///
  /// Encode-once contract (DESIGN.md §8): the fan-out shares one message
  /// object, its cached wire_size(), and — on byte-moving backends — one
  /// Codec::shared_frame buffer.  No backend serializes a message more
  /// than once, no matter how many destinations, retries or duplicates
  /// ship it.
  virtual void multicast(ProcessId from,
                         std::span<const ProcessId> destinations,
                         const MessagePtr& message, Lane lane,
                         bool skip_self = true) = 0;

  /// Marks a process crashed (crash-stop): it stops receiving and its
  /// future sends are ignored; messages already on the wire still arrive.
  virtual void crash(ProcessId id) = 0;

  /// Registers an observer invoked (synchronously) whenever a process
  /// crashes.  Used by oracle failure detectors.
  virtual void subscribe_crash(
      std::function<void(ProcessId, sim::TimePoint)> observer) = 0;

  [[nodiscard]] virtual bool is_crashed(ProcessId id) const = 0;

  /// Virtual time at which `id` crashed, if it did.
  [[nodiscard]] virtual std::optional<sim::TimePoint> crash_time(
      ProcessId id) const = 0;

  /// Signals that `to` has freed buffer space: all links stalled on `to`
  /// retry their head message.
  virtual void resume(ProcessId to) = 0;

  /// Registers an observer fired whenever an outgoing data-lane backlog of
  /// `from` shrinks (delivery accepted, purge, or drop).
  virtual void subscribe_backlog_drain(ProcessId from,
                                       std::function<void()> observer) = 0;

  /// Number of data-lane messages queued from -> to (the sender's outgoing
  /// buffer occupancy towards that destination).
  [[nodiscard]] virtual std::size_t data_backlog(ProcessId from,
                                                 ProcessId to) const = 0;

  /// Removes data-lane messages queued from `from` (to every destination)
  /// for which `victim` returns true.  Returns the number removed.
  virtual std::size_t purge_outgoing(ProcessId from, VictimRef victim) = 0;

  /// Windowed sender-side purge: visits only the queued data-lane messages
  /// from -> to whose Message::order_key lies in [floor_key, below_key).
  /// Precondition: the queue is non-decreasing in order_key.
  virtual std::size_t purge_outgoing_window(ProcessId from, ProcessId to,
                                            std::uint64_t floor_key,
                                            std::uint64_t below_key,
                                            VictimRef victim) = 0;

  /// Number of messages purge_outgoing_window would remove, without
  /// removing them (the flow-control admission pre-check of t2).
  virtual std::size_t count_outgoing_window(ProcessId from, ProcessId to,
                                            std::uint64_t floor_key,
                                            std::uint64_t below_key,
                                            VictimRef pred) = 0;

  /// Drops every queued data-lane message from -> * matching `victim`.
  /// Not counted as semantic purging (used to discard superseded views).
  virtual std::size_t drop_outgoing(ProcessId from, VictimRef victim) = 0;

  /// Adds `extra` to the propagation delay of link from -> to (simulated
  /// network perturbation).  Pass zero to clear.
  virtual void set_link_slowdown(ProcessId from, ProcessId to,
                                 sim::Duration extra) = 0;

  /// Installs (or clears, with nullptr) the fault-injection hook consulted
  /// at every enqueue and before every data-lane delivery attempt
  /// (fault_injector.hpp).  Not owned; must outlive the traffic it faults.
  virtual void set_fault_injector(FaultInjector* injector) = 0;

  /// Credits wire bytes saved by a delta-encoded gossip (core-layer
  /// telemetry surfaced with the other transport counters).
  virtual void note_gossip_bytes_saved(std::uint64_t bytes) = 0;

  [[nodiscard]] virtual const NetworkStats& stats() const = 0;

  /// Number of attached processes.
  [[nodiscard]] virtual std::uint32_t size() const = 0;
};

}  // namespace svs::net
