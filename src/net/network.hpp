// Simulated point-to-point network: n x n reliable FIFO channels (§3.1) with
// propagation delay, receiver backpressure and purgeable outgoing queues.
// This is the deterministic sim backend of net::Transport; the UDP backend
// (net/udp_transport.hpp) layers a real datagram wire on top of the same
// link discipline.
//
// Model (matches §5.3): each ordered pair (from, to) has one queue per lane.
// A queued message is still in the *sender's outgoing buffer* until the
// receiver accepts it; acceptance is attempted once the message's
// propagation delay has elapsed (under Hold::marked, only overwrites wait
// it; see Config::delay).  Each link lane runs one delivery timer
// that drains every message already due in a single simulator event, so a
// burst of n same-ready messages costs one heap operation, not n.  A
// receiver may refuse a data-lane message ("ceases to accept further
// messages from the network"), which stalls the link head and lets the
// queue — the sender's outgoing buffer — fill up.
// Control-lane messages are never refused.  Bandwidth is unlimited: there is
// no per-byte service time, only propagation delay (§5.3: "unlimited
// bandwidth in order not to be a limiting factor").
//
// Representation (DESIGN.md §2): attach() assigns each ProcessId a dense
// index; links live in per-sender rows of lazily allocated slots
// (links_[from_idx][to_idx]), and the endpoint / crash / drain-observer
// tables are dense vectors too.  Link access on the send/receive/purge path
// is two dense indexations — no ordered-map walk — and a whole sender row
// is contiguous, so multicast() resolves the sender once and fans out
// cache-friendly.  A link is materialized on first use: an n-member group
// costs O(n x active peers) links, not an eager n² (each Link holds two
// deques, which at n=1024 would otherwise allocate gigabytes before the
// first message), and attach() is O(1) instead of an O(n²) re-stride.
//
// Semantic purging of outgoing buffers (the sender-side half of the paper's
// buffer purging, detailed in the companion work [22] referenced from §3.3)
// is exposed via purge_outgoing() and, for senders whose data-lane queues
// are ordered by Message::order_key, the windowed purge_outgoing_window().
// The victim predicates are two-word util::FunctionRefs (no std::function
// allocation on the fan-out path).
//
// Byte accounting: every enqueue records the message's encoded size
// (wire_size(), net::Codec's own count of the bytes it writes), so
// bytes_sent / bytes_delivered / bytes_purged are measured wire bytes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/message.hpp"
#include "net/transport.hpp"
#include "net/types.hpp"
#include "sim/simulator.hpp"
#include "util/contracts.hpp"

namespace svs::net {

class Network final : public Transport {
 public:
  struct Config {
    /// One-way propagation delay: how long a message waits in the sender's
    /// outgoing buffer, where sender-side purging can still remove it.
    /// Under Hold::every (sim, all-local UDP) every message waits it; under
    /// Hold::marked (distributed UDP) only Message::held() overwrites do,
    /// and it is the hold that lets the next write purge them.
    sim::Duration delay = sim::Duration::millis(1);
  };

  /// Which messages wait Config::delay in the outgoing buffer.
  enum class Hold : std::uint8_t {
    /// Every message: §5.3's propagation-delay model.
    every,
    /// Only messages marked Message::held(); the rest are offered to their
    /// endpoint at the virtual instant they were sent.  UdpTransport's
    /// distributed mode, where the real wire supplies the latency and a
    /// simulated one would only add wall time.
    marked,
  };

  Network(sim::Simulator& simulator, Config config, Hold hold = Hold::every);

  /// Registers the endpoint for a process and assigns it the next dense
  /// index.  Must be called before any send involving `id`.  O(1): links
  /// are materialized lazily on first use, so attaching never moves
  /// queued traffic.
  void attach(ProcessId id, Endpoint& endpoint) override;

  /// Enqueues a message from -> to.  No-op if the sender has crashed.
  /// Self-sends are allowed (they traverse a loopback link with the same
  /// delay), which keeps broadcast loops in upper layers uniform.
  void send(ProcessId from, ProcessId to, MessagePtr message,
            Lane lane) override;

  /// Fan-out send: enqueues `message` from -> every destination, in order.
  /// The sender row is resolved once; per destination the cost is one dense
  /// index lookup and one queue push.  Equivalent to the send() loop,
  /// including per-destination fault-injector draws.  With `skip_self`
  /// (the data fan-out convention) `from` itself is skipped, so callers can
  /// pass a whole view membership; without it a loopback copy is enqueued
  /// in the destination's position (the INIT/PRED broadcast convention).
  void multicast(ProcessId from, std::span<const ProcessId> destinations,
                 const MessagePtr& message, Lane lane,
                 bool skip_self = true) override;

  /// Marks a process crashed (crash-stop): it stops receiving (messages
  /// addressed to it are dropped on arrival) and its future sends are
  /// ignored.  Messages it already sent keep flowing — a real crashed host's
  /// packets already on the wire still arrive.
  void crash(ProcessId id) override;

  /// Registers an observer invoked (synchronously) whenever a process
  /// crashes.  Used by oracle failure detectors.
  void subscribe_crash(
      std::function<void(ProcessId, sim::TimePoint)> observer) override;

  [[nodiscard]] bool is_crashed(ProcessId id) const override;

  /// Virtual time at which `id` crashed, if it did (used by the oracle
  /// failure detector).
  [[nodiscard]] std::optional<sim::TimePoint> crash_time(
      ProcessId id) const override;

  /// Signals that `to` has freed buffer space: all links stalled on `to`
  /// retry their head message.
  void resume(ProcessId to) override;

  /// Registers an observer fired whenever an outgoing data-lane backlog of
  /// `from` shrinks (delivery accepted, purge, or drop).  Senders use it to
  /// wake blocked producers.
  void subscribe_backlog_drain(ProcessId from,
                               std::function<void()> observer) override;

  /// Number of data-lane messages queued from -> to (the sender's outgoing
  /// buffer occupancy towards that destination).
  [[nodiscard]] std::size_t data_backlog(ProcessId from,
                                         ProcessId to) const override;

  /// Removes data-lane messages queued from `from` (to every destination)
  /// for which `victim` returns true.  Returns the number removed.  This is
  /// sender-side semantic purging: only messages not yet accepted by the
  /// receiver can be removed.
  std::size_t purge_outgoing(ProcessId from, VictimRef victim) override;

  /// Windowed sender-side purge (DESIGN.md §2): visits only the queued
  /// data-lane messages whose order key lies in [floor_key, below_key),
  /// located by binary search — the per-sender relation fast path, where
  /// `below_key` is the covering message's seq and `floor_key` its
  /// Relation::coverage_floor.  Precondition: the from -> to data queue is
  /// non-decreasing in Message::order_key (true for protocol senders, which
  /// emit their own seqs in order).  Returns the number removed.
  std::size_t purge_outgoing_window(ProcessId from, ProcessId to,
                                    std::uint64_t floor_key,
                                    std::uint64_t below_key,
                                    VictimRef victim) override;

  /// Number of messages purge_outgoing_window would remove, without
  /// removing them (the flow-control admission pre-check of t2).
  std::size_t count_outgoing_window(ProcessId from, ProcessId to,
                                    std::uint64_t floor_key,
                                    std::uint64_t below_key,
                                    VictimRef pred) override;

  /// Drops every queued data-lane message from -> * matching `victim`.
  /// Unlike purge_outgoing this is not counted as semantic purging; it is
  /// used at view installation to discard messages of superseded views.
  std::size_t drop_outgoing(ProcessId from, VictimRef victim) override;

  /// Adds `extra` to the propagation delay of link from -> to (simulated
  /// network perturbation).  Pass zero to clear.
  void set_link_slowdown(ProcessId from, ProcessId to,
                         sim::Duration extra) override;

  /// Fault-injection hook (fault_injector.hpp): consulted once per enqueued
  /// message per destination (extra delay / duplication / drop) and before
  /// every data-lane delivery attempt (receiver-pause stalls).  FIFO order
  /// survives any injected delay (ready times are clamped monotone per
  /// lane).  Pass nullptr to clear.
  void set_fault_injector(FaultInjector* injector) override {
    injector_ = injector;
  }

  /// Credits wire bytes saved by a delta-encoded gossip (core-layer
  /// telemetry surfaced with the other network counters).
  void note_gossip_bytes_saved(std::uint64_t bytes) override {
    stats_.gossip_bytes_saved += bytes;
  }

  [[nodiscard]] const NetworkStats& stats() const override { return stats_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  /// Number of attached processes (the dense registry's size).
  [[nodiscard]] std::uint32_t size() const override {
    return static_cast<std::uint32_t>(endpoints_.size());
  }

 private:
  // Byte counters re-derive wire_size() from the message at delivery/purge
  // time instead of caching it here: a fourth word would push the entry
  // from 32 to 40 bytes and measurably slow the flood hot path, while the
  // wire_size() call is one predicted virtual dispatch on paths that
  // already touch the message object.
  struct QueuedMessage {
    MessagePtr message;
    sim::TimePoint ready;     // earliest acceptance-attempt time
    std::uint64_t order_key;  // cached Message::order_key (windowed purges)
  };

  struct Link {
    std::deque<QueuedMessage> queue[2];  // indexed by Lane
    sim::TimePoint last_ready[2] = {};   // monotone per lane (FIFO)
    bool stalled = false;                // data lane refused; waiting resume
    sim::EventId pending[2] = {};        // scheduled attempt per lane
    bool in_attempt[2] = {false, false};  // delivery running (re-entrancy)
    sim::Duration slowdown = sim::Duration::zero();
  };

  static constexpr int lane_index(Lane lane) {
    return lane == Lane::data ? 0 : 1;
  }

  /// Dense index of an attached process; contract violation if unknown.
  [[nodiscard]] std::uint32_t index_of(ProcessId id) const {
    const auto raw = static_cast<std::size_t>(id.value());
    SVS_REQUIRE(raw < dense_.size() && dense_[raw] >= 0,
                "process not attached");
    return static_cast<std::uint32_t>(dense_[raw]);
  }
  /// As index_of but returns nullopt instead of failing (query paths).
  [[nodiscard]] std::optional<std::uint32_t> find_index(ProcessId id) const {
    const auto raw = static_cast<std::size_t>(id.value());
    if (raw >= dense_.size() || dense_[raw] < 0) return std::nullopt;
    return static_cast<std::uint32_t>(dense_[raw]);
  }

  /// The [lo, hi) subrange of a data queue with order keys in
  /// [floor_key, below_key), by binary search (queue keys non-decreasing).
  static std::pair<std::deque<QueuedMessage>::iterator,
                   std::deque<QueuedMessage>::iterator>
  window_of(std::deque<QueuedMessage>& q, std::uint64_t floor_key,
            std::uint64_t below_key);

  /// Shared epilogue of every erase path: if the scheduled head was
  /// removed, re-aim the pending attempt at the new head.
  void reaim_if_head_removed(Link& l, std::uint32_t fi, std::uint32_t ti,
                             bool head_scheduled, const Message* old_head);

  /// Marks a region that holds references into the link table.  Links are
  /// heap-stable, but attach() still refuses to run while any such region
  /// is active — delivery handlers, purge victims and drain observers must
  /// not attach synchronously (defer to a simulator event instead), which
  /// keeps mid-delivery membership mutations out of the model.
  class LinkRefScope {
   public:
    explicit LinkRefScope(const Network& network) : network_(network) {
      ++network_.link_refs_held_;
    }
    ~LinkRefScope() { --network_.link_refs_held_; }
    LinkRefScope(const LinkRefScope&) = delete;
    LinkRefScope& operator=(const LinkRefScope&) = delete;

   private:
    const Network& network_;
  };
  friend class LinkRefScope;

  /// Shared body of purge_outgoing and drop_outgoing: erases `from`'s
  /// queued data-lane messages matching `victim`, on every link; only a
  /// purge counts them (and their bytes) as semantic purging.
  std::size_t erase_outgoing(ProcessId from, VictimRef victim,
                             bool count_as_purged);

  /// The link from -> to, materialized on first use.
  [[nodiscard]] Link& link_at(std::uint32_t fi, std::uint32_t ti) {
    auto& row = links_[fi];
    if (row.size() < size()) row.resize(size());
    auto& slot = row[ti];
    if (slot == nullptr) slot = std::make_unique<Link>();
    return *slot;
  }
  /// The link from -> to if it was ever used, else null (query paths: a
  /// never-used link is indistinguishable from an empty one).
  [[nodiscard]] Link* peek_link(std::uint32_t fi, std::uint32_t ti) const {
    const auto& row = links_[fi];
    return ti < row.size() ? row[ti].get() : nullptr;
  }

  void enqueue(std::uint32_t fi, std::uint32_t ti, Link& l,
               MessagePtr message, Lane lane, std::size_t wire_bytes);
  void schedule_attempt(std::uint32_t fi, std::uint32_t ti, Link& l,
                        Lane lane);
  void attempt(std::uint32_t fi, std::uint32_t ti, Lane lane);
  void notify_drain(std::uint32_t fi);
  /// Injected receiver pause: stalls the link and arms one wake-up event
  /// per receiver per pause window (idempotent across the n stalling links).
  void arm_pause_wakeup(std::uint32_t ti, sim::TimePoint until);

  sim::Simulator& sim_;
  Config config_;
  Hold hold_;

  // Dense process registry: attach order assigns indices 0..n-1.
  std::vector<Endpoint*> endpoints_;   // dense idx -> endpoint
  std::vector<ProcessId> pid_of_;      // dense idx -> id
  std::vector<std::int32_t> dense_;    // raw id -> dense idx (-1 unattached)
  // links_[from_idx][to_idx]; slots materialize on first use (null =
  // never-used link, treated as empty by every query path).
  std::vector<std::vector<std::unique_ptr<Link>>> links_;
  struct CrashRecord {
    bool crashed = false;
    sim::TimePoint at = {};
  };
  std::vector<CrashRecord> crash_;     // dense idx
  // Per receiver: latest pause wake-up already scheduled (origin = none).
  std::vector<sim::TimePoint> pause_wakeup_;  // dense idx
  std::vector<std::vector<std::function<void()>>> drain_observers_;  // idx
  std::vector<std::function<void(ProcessId, sim::TimePoint)>> crash_observers_;
  NetworkStats stats_;
  FaultInjector* injector_ = nullptr;  // not owned; nullable
  mutable std::uint32_t link_refs_held_ = 0;  // active LinkRefScopes
};

}  // namespace svs::net
