// UDP transport backend: real datagrams under the SVS stack, made reliable
// by a link-level ack/retransmission lane (DESIGN.md §9).
//
// UdpTransport *contains* a net::Network: the inner network keeps the link
// discipline the protocol reasons about (FIFO order, propagation delay,
// backpressure, purgeable outgoing buffers, crash semantics, fault
// injection), so runs stay deterministic and the cross-backend equivalence
// suite pins it to the sim backend.  What changes is the delivery
// crossing: this backend ships an encoded frame through the kernel as a
// UDP datagram — which can be lost, duplicated or reordered — and a
// reliable-delivery lane below the SVS layer recovers it:
//
//   * per-(link, lane) sequence numbers assigned at datagram send time;
//   * cumulative + selective acks piggybacked on reverse traffic
//     (net/dgram.hpp), pure ack datagrams otherwise;
//   * retransmission on exponentially backed-off, jittered timeouts;
//   * duplicate suppression at the reception frontier;
//   * a bounded in-flight window with graceful backpressure: a sender that
//     fills the window degrades to blocking (the data-lane refusal the SVS
//     flow control already understands) and *never* silently drops a
//     protocol message.
//
// Reliability sits BELOW the SVS layer on purpose: §3.1 assumes reliable
// FIFO channels, so datagram loss must be repaired before messages enter
// the protocol — the same layering as TCP under a group toolkit.  The SVS
// semantics (purging, view synchrony) then apply to the *sender's outgoing
// buffer* (the inner network's queues, not yet transmitted), which is the
// honest model: bytes already handed to the kernel are on the wire and
// cannot be unsent.
//
// Two deployment modes share the lane machinery:
//
//   * All-local (Group::Backend::udp, tests, equivalence): every attached
//     process gets its own localhost socket and each delivery crossing is a
//     SHADOW crossing — the verdict is computed synchronously in memory
//     (the frame is decoded and handed to the real endpoint at crossing
//     time, so protocol histories stay bit-identical to the sim backend),
//     while the *same* encoded frame is batched, staged on the reliable
//     link and shipped through the kernel asynchronously.
//     The receiver byte-verifies every arriving frame against a per-link
//     FIFO of the frames recorded at crossing time: the lane's in-order
//     delivery contract is checked on every run, with real loss and real
//     retransmissions, without serializing a kernel round-trip per
//     crossing.  Only the lane counters (retransmissions, duplicate drops,
//     syscall counts) are timing-dependent.
//
//   * Distributed (tools/svs_proc): one local process attaches, remote
//     peers are registered with add_peer(); sends to them stage frames on
//     the reliable link and return immediately (window-gated for the data
//     lane), pump() drains arriving datagrams and due retransmissions, and
//     runtime/real_time.hpp interleaves pumping with the virtual clock.
//     A peer whose link exhausts its retries is declared dead and
//     crash-stopped in the inner network; the heartbeat FD + membership
//     machinery then excludes it (kill -9 becomes a real crash fault).
//     Here the kernel supplies the latency, so the inner network holds
//     only overwrites (Network::Hold::marked): a data message marked
//     Message::held() — its annotation names an earlier message — waits
//     network.delay in the purgeable outgoing buffer, where the next write
//     of the same object can purge it before it costs a datagram.  Every
//     other message, control traffic included, reaches the reliable lane
//     in the simulator turn it was sent (DESIGN.md §9).
//
// The hot path is batched end to end: frames coalesce per (peer, lane)
// into multi-frame datagrams (both modes), encoded datagrams queue on a
// per-process SendQueue flushed through sendmmsg, and the receive side
// drains a recvmmsg ring and decodes straight out of its pooled buffers.
// Acks are delayed to the end of each socket drain — one cumulative ack
// per (peer, lane) touched — instead of one per datagram.  All deadlines
// (retransmission, batch flush, zero-window probe, send-queue retry) live
// on a single hierarchical util::TimerWheel with µs ticks: next_deadline
// is a bitmap peek instead of an O(links) scan, and idle waits ppoll with
// µs precision until the earliest wheel deadline.
//
// Datagram loss is injected at the socket boundary (DatagramLossModel,
// seeded per directed link) — satisfying FaultKind::loss for this backend
// with *real* drops recovered by *real* retransmissions, at zero
// virtual-time cost (the in-model recovery latency is added by the shared
// PlannedFaultInjector in the inner network, identically on all backends).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "net/dgram.hpp"
#include "net/network.hpp"
#include "net/transport.hpp"
#include "net/udp.hpp"
#include "sim/random.hpp"
#include "util/timer_wheel.hpp"

namespace svs::net {

/// Counters of the reliable-delivery lane (per transport, both modes).
/// These are *real-time* measurements — unlike NetworkStats they depend on
/// kernel scheduling, so equivalence tests may assert them non-zero or
/// zero, never equal across runs.
struct UdpLaneStats {
  std::uint64_t datagrams_sent = 0;      // handed to the send queue (post-loss)
  std::uint64_t datagram_bytes_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t frames_delivered = 0;    // payloads handed up, in link order
  std::uint64_t retransmissions = 0;     // timeout-driven re-sends
  std::uint64_t ack_datagrams = 0;       // pure acks (piggybacks not counted)
  std::uint64_t ack_bytes = 0;
  std::uint64_t duplicate_drops = 0;     // below-frontier / already-seen seqs
  std::uint64_t injected_losses = 0;     // dropped by the DatagramLossModel
  std::uint64_t malformed_datagrams = 0; // decode threw; datagram discarded
  std::uint64_t stray_datagrams = 0;     // wrong addressee / unknown sender
  std::uint64_t link_resets = 0;         // retry budget exhausted; peer dead
  std::uint64_t inbound_stalls = 0;      // data frames parked on a full node
  std::uint64_t zero_window_probes = 0;
  std::uint64_t frame_encodes = 0;       // encode-once telemetry (§8)
  std::uint64_t frame_reuses = 0;
  std::uint64_t frames_batched = 0;      // frames shipped in multi-frame batches
  std::uint64_t batch_flushes = 0;       // pending-batch flushes (datagrams)
  // Kernel I/O accounting (aggregated from per-socket IoCounters by
  // lane_stats()): the syscall totals the batching exists to shrink, plus
  // the mmsg-vs-single split proving which path ran.
  std::uint64_t syscalls_sent = 0;       // sendmmsg + sendto calls
  std::uint64_t syscalls_recvd = 0;      // recvmmsg + recv calls
  std::uint64_t mmsg_sends = 0;
  std::uint64_t mmsg_recvs = 0;
  std::uint64_t single_sends = 0;
  std::uint64_t single_recvs = 0;
  std::uint64_t wheel_cascades = 0;      // timer-wheel level-to-level moves
  std::uint64_t send_queue_drops = 0;    // SendQueue overflow (drop-newest)
};

/// Seeded per-directed-link Bernoulli drops applied at the socket boundary
/// (before sendto).  Each link draws from its own stream, so changing one
/// link's rate never reshuffles another's losses.
class DatagramLossModel {
 public:
  explicit DatagramLossModel(std::uint64_t seed) : seed_(seed) {}

  /// Loss probability for links without an explicit override.
  void set_default_rate(double rate) { default_rate_ = rate; }
  void set_link_rate(std::uint32_t from, std::uint32_t to, double rate);

  /// One draw on the (from -> to) stream; true = drop this datagram.
  [[nodiscard]] bool drop(std::uint32_t from, std::uint32_t to);

 private:
  struct LinkState {
    std::optional<double> rate;
    std::optional<sim::Rng> rng;
  };

  std::uint64_t seed_;
  double default_rate_ = 0.0;
  std::map<std::uint64_t, LinkState> links_;  // (from << 32) | to
};

/// Both halves of one reliable link endpoint for a (peer, lane) pair: the
/// sender half (in-flight window, retransmission deadlines) for traffic we
/// originate, and the receiver half (reception frontier, out-of-order
/// stash) for traffic the peer originates.  Pure state machine — no
/// sockets, no clock; time is passed in as monotonic microseconds — so it
/// unit-tests and benchmarks without a kernel in the loop.
class ReliableLink {
 public:
  struct Config {
    /// Max unacked data frames in flight (also the advertised window).
    std::uint32_t window = 32;
    std::int64_t rto_base_us = 2'000;
    std::int64_t rto_max_us = 250'000;
    /// Retransmissions per frame before the peer is declared dead.
    std::uint32_t max_retries = 60;
  };

  ReliableLink(Config config, sim::Rng rng, UdpLaneStats& stats)
      : config_(config),
        rng_(rng),
        stats_(stats),
        peer_window_(config.window) {}

  // --- sender half ------------------------------------------------------

  /// Room in both the local window and the peer's advertised one.  The
  /// window is counted in FRAMES, not batches: a staged batch of k frames
  /// consumes k slots, so batching never widens the "at most `window`
  /// unacked frames" backpressure contract.
  [[nodiscard]] bool can_send() const {
    return !dead_ && in_flight_frames_ <
                         std::min<std::size_t>(config_.window, peer_window_);
  }
  /// Window slots still open (0 when dead or full).
  [[nodiscard]] std::size_t send_room() const {
    const std::size_t limit =
        std::min<std::size_t>(config_.window, peer_window_);
    return dead_ || in_flight_frames_ >= limit
               ? 0
               : limit - in_flight_frames_;
  }
  /// Unacked frames across all staged batches.
  [[nodiscard]] std::size_t in_flight() const { return in_flight_frames_; }
  [[nodiscard]] bool all_acked() const { return in_flight_.empty(); }
  /// Retry budget exhausted on some frame: the peer is presumed crashed.
  [[nodiscard]] bool dead() const { return dead_; }
  [[nodiscard]] std::uint32_t peer_window() const { return peer_window_; }

  /// Assigns the next link seq to `frame` and arms its first deadline.
  std::uint64_t stage(FramePtr frame, std::int64_t now_us);
  /// Batch form: all frames ride (and are retransmitted/acked) under the
  /// one returned link seq.
  std::uint64_t stage(std::vector<FramePtr> frames, std::int64_t now_us);
  /// The staged frames for `seq`; null if already retired.
  [[nodiscard]] const std::vector<FramePtr>* frames_of(
      std::uint64_t seq) const;
  /// Earliest retransmission deadline (INT64_MAX when nothing in flight).
  [[nodiscard]] std::int64_t next_deadline() const;
  /// Seqs due for retransmission at `now_us`: applies backoff + jitter and
  /// counts them.  A frame out of retries marks the link dead and clears
  /// the in-flight set instead.
  void collect_due(std::int64_t now_us, std::vector<std::uint64_t>& due);
  /// Retires frames covered by `ack` (cum + sacks), adopts the advertised
  /// window.
  void on_ack(const AckBlock& ack);

  // --- receiver half ----------------------------------------------------

  /// Accepts an arriving batch.  False = duplicate (counted, discarded).
  bool accept(std::uint64_t seq, std::vector<util::Bytes> payloads);
  /// Pops the next in-link-order payload, if the frontier reaches it
  /// (batches are flattened in batch order; frames of one batch share its
  /// link seq).
  bool next_ready(std::uint64_t& seq, util::Bytes& payload);
  /// Current ack state (cum + sacks) with the given advertised window.
  [[nodiscard]] AckBlock ack_state(std::uint32_t window) const;
  [[nodiscard]] std::uint64_t frontier() const { return cum_; }

 private:
  struct InFlight {
    std::uint64_t seq = 0;
    std::vector<FramePtr> frames;  // one batch, >= 1 frames
    std::uint32_t retries = 0;
    std::int64_t deadline_us = 0;
    std::int64_t rto_us = 0;
  };

  Config config_;
  sim::Rng rng_;
  UdpLaneStats& stats_;
  std::deque<InFlight> in_flight_;  // ascending seq
  std::size_t in_flight_frames_ = 0;  // sum of batch sizes (window unit)
  std::uint64_t next_seq_ = 1;
  std::uint32_t peer_window_;
  bool dead_ = false;
  // Receiver half: everything <= cum_ received; runs above it stashed.
  std::uint64_t cum_ = 0;
  std::map<std::uint64_t, std::vector<util::Bytes>> out_of_order_;
  std::deque<std::pair<std::uint64_t, util::Bytes>> ready_;
};

class UdpTransport final : public Transport {
 public:
  struct Config {
    /// Inner link discipline (virtual-time delay).  All-local mode
    /// delays every message, as the sim backend does; distributed mode
    /// delays only held overwrites (Network::Hold::marked), so there
    /// `delay` is the hold that gives sender-side purging its window.
    Network::Config network;
    /// Reliable-lane tuning.  The defaults suit the all-local shadow mode;
    /// distributed deployments want a larger rto_base_us (real scheduling
    /// jitter) — tools/svs_proc sets its own.
    ReliableLink::Config link;
    /// Datagram loss probability applied to every link (see loss()).
    double loss_rate = 0.0;
    /// Distributed mode: bind the single local socket eagerly (at
    /// bind_port; 0 = ephemeral) so the pre-protocol join flow can use it.
    bool bind_local = false;
    std::uint16_t bind_port = 0;
    /// If > 0, shrink SO_RCVBUF on every socket (kernel-drop stress mode).
    int rcvbuf_bytes = 0;
    /// Per-destination frame batching (both modes): frames bound for the
    /// same (peer, lane) coalesce into one datagram until the batch
    /// reaches this many payload bytes (soft MTU budget) or
    /// Datagram::kMaxBatchFrames, or until batch_delay_us of real time
    /// passes since the batch opened.  0 sends every frame as its own
    /// datagram (the batch fills, and flushes, on its first frame).
    std::size_t batch_bytes = 1400;
    std::int64_t batch_delay_us = 200;
  };

  UdpTransport(sim::Simulator& simulator, Config config);
  ~UdpTransport() override = default;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// All-local mode: creates the process's socket and its delivery-crossing
  /// adapter.  Distributed mode: binds the (single) local endpoint to the
  /// socket created by the constructor.
  void attach(ProcessId id, Endpoint& endpoint) override;

  // --- distributed mode -------------------------------------------------

  /// Declares a remote member reachable at 127.0.0.1:port and registers its
  /// outbound proxy with the inner network.  Call after the constructor
  /// (bind_local = true) and before protocol traffic flows.
  void add_peer(ProcessId id, std::uint16_t port);
  /// Pre-protocol datagrams (join/roster) seen by pump() are handed here
  /// (the introducer re-sends rosters to late joiners); unset, they count
  /// as stray.
  void set_stray_datagram_handler(std::function<void(const Datagram&)> h) {
    stray_handler_ = std::move(h);
  }

  // --- both modes -------------------------------------------------------

  /// One transport turn: advance the timer wheel (batch flushes,
  /// retransmissions, probes), drain every socket, flush every send queue;
  /// when nothing was pending, wait up to `timeout_us` (µs-exact ppoll,
  /// capped by the earliest wheel deadline).  Drives both modes — tests
  /// drain their all-local shadow traffic with
  /// `while (!links_idle()) pump(...)`.  Returns datagrams handled.
  std::size_t pump(std::int64_t timeout_us);

  /// Local UDP port of process `id` (distributed mode: the single local
  /// process; all-local mode: any attached process).
  [[nodiscard]] std::uint16_t local_port(ProcessId id) const;
  /// The raw socket of process `id` (join flow, SO_RCVBUF stress).
  [[nodiscard]] UdpSocket& socket_of(ProcessId id);
  /// True when no frame awaits acknowledgement, no batch or send queue
  /// holds undelivered datagrams, and (all-local) every shadow frame has
  /// been wire-verified.
  [[nodiscard]] bool links_idle() const;
  /// Lane counters plus per-socket kernel I/O counters and wheel activity,
  /// aggregated at call time.
  [[nodiscard]] UdpLaneStats lane_stats() const;
  [[nodiscard]] DatagramLossModel& loss() { return loss_; }
  /// The deadline wheel (observability: size, cascade count).
  [[nodiscard]] const util::TimerWheel& wheel() const { return wheel_; }

  // --- Transport surface: link discipline lives in the inner network ----

  void send(ProcessId from, ProcessId to, MessagePtr message,
            Lane lane) override {
    inner_.send(from, to, std::move(message), lane);
  }
  void multicast(ProcessId from, std::span<const ProcessId> destinations,
                 const MessagePtr& message, Lane lane,
                 bool skip_self = true) override {
    inner_.multicast(from, destinations, message, lane, skip_self);
  }
  void crash(ProcessId id) override { inner_.crash(id); }
  void subscribe_crash(
      std::function<void(ProcessId, sim::TimePoint)> observer) override {
    inner_.subscribe_crash(std::move(observer));
  }
  [[nodiscard]] bool is_crashed(ProcessId id) const override {
    return inner_.is_crashed(id);
  }
  [[nodiscard]] std::optional<sim::TimePoint> crash_time(
      ProcessId id) const override {
    return inner_.crash_time(id);
  }
  void resume(ProcessId to) override;
  void subscribe_backlog_drain(ProcessId from,
                               std::function<void()> observer) override {
    inner_.subscribe_backlog_drain(from, std::move(observer));
  }
  [[nodiscard]] std::size_t data_backlog(ProcessId from,
                                         ProcessId to) const override {
    return inner_.data_backlog(from, to);
  }
  std::size_t purge_outgoing(ProcessId from, VictimRef victim) override {
    return inner_.purge_outgoing(from, victim);
  }
  std::size_t purge_outgoing_window(ProcessId from, ProcessId to,
                                    std::uint64_t floor_key,
                                    std::uint64_t below_key,
                                    VictimRef victim) override {
    return inner_.purge_outgoing_window(from, to, floor_key, below_key,
                                        victim);
  }
  std::size_t count_outgoing_window(ProcessId from, ProcessId to,
                                    std::uint64_t floor_key,
                                    std::uint64_t below_key,
                                    VictimRef pred) override {
    return inner_.count_outgoing_window(from, to, floor_key, below_key, pred);
  }
  std::size_t drop_outgoing(ProcessId from, VictimRef victim) override {
    return inner_.drop_outgoing(from, victim);
  }
  void set_link_slowdown(ProcessId from, ProcessId to,
                         sim::Duration extra) override {
    inner_.set_link_slowdown(from, to, extra);
  }
  void set_fault_injector(FaultInjector* injector) override;
  void note_gossip_bytes_saved(std::uint64_t bytes) override {
    inner_.note_gossip_bytes_saved(bytes);
  }
  [[nodiscard]] const NetworkStats& stats() const override {
    return inner_.stats();
  }
  [[nodiscard]] std::uint32_t size() const override { return inner_.size(); }

  /// Monotonic real-time clock (microseconds) shared by the lane machinery
  /// and runtime::RealTimeDriver.
  [[nodiscard]] static std::int64_t mono_us();

 private:
  using LinkKey = std::pair<std::uint32_t, std::uint8_t>;  // (peer, lane)
  using TimerId = util::TimerWheel::TimerId;

  /// A wheel timer handle plus the deadline it was armed at, so re-arming
  /// can keep the earlier of two deadlines without touching the wheel.
  struct ArmedTimer {
    TimerId id = util::TimerWheel::kInvalidTimer;
    std::int64_t deadline_us = 0;
  };

  /// One locally hosted process: its socket, receive ring, send queue,
  /// reliable links and per-link wheel timers.
  struct Proc {
    ProcessId id{0};
    Endpoint* real = nullptr;
    std::size_t index = 0;  // position in procs_ (stable; wheel payloads)
    UdpSocket socket;
    RecvRing ring;
    SendQueue sendq;
    TimerId sendq_timer = util::TimerWheel::kInvalidTimer;
    std::map<LinkKey, std::unique_ptr<ReliableLink>> links;
    /// Per-link retransmission timer: one per link, armed at the link's
    /// earliest deadline (earlier-deadline-wins; a stale early fire is a
    /// harmless re-arm).
    std::map<LinkKey, ArmedTimer> retx_timers;
    /// Zero-window probe timers, per stalled-outbound peer (distributed).
    std::map<std::uint32_t, TimerId> probe_timers;
    /// Shadow-crossing verification (all-local): for each inbound link,
    /// the FIFO of frames recorded at crossing time that the wire must
    /// reproduce byte-for-byte, in order.
    std::map<LinkKey, std::deque<FramePtr>> expected;
    /// Links touched by the current socket drain; one cumulative ack per
    /// entry is sent when the drain ends (delayed acks).
    std::set<LinkKey> ack_pending;
    /// Distributed inbound backpressure: in-order data frames the local
    /// node refused, waiting for resume().
    std::map<std::uint32_t, std::deque<MessagePtr>> stalled;
    /// Per-destination batcher (both modes): frames accumulating towards
    /// one datagram.  `bytes` counts encoded payload cost (frame bytes +
    /// per-frame length varints); the wheel timer is armed when the batch
    /// opens.
    struct PendingBatch {
      std::vector<FramePtr> frames;
      std::size_t bytes = 0;
      TimerId timer = util::TimerWheel::kInvalidTimer;
    };
    std::map<LinkKey, PendingBatch> pending;

    explicit Proc(std::uint16_t port) : socket(port) {}
  };

  /// All-local delivery crossing: interposed at the inner network's
  /// delivery point.
  class LocalAdapter final : public Endpoint {
   public:
    LocalAdapter(UdpTransport& owner, std::size_t proc_index)
        : owner_(owner), proc_index_(proc_index) {}
    bool on_message(ProcessId from, const MessagePtr& message,
                    Lane lane) override {
      return owner_.shadow_cross(from, proc_index_, message, lane);
    }

   private:
    UdpTransport& owner_;
    std::size_t proc_index_;
  };

  /// Distributed outbound proxy: stands in for a remote peer inside the
  /// inner network; "delivery" means staging the frame on the reliable
  /// link (or refusing, when the window is full — the data-lane stall the
  /// flow control understands).
  class RemoteProxy final : public Endpoint {
   public:
    RemoteProxy(UdpTransport& owner, ProcessId peer)
        : owner_(owner), peer_(peer) {}
    bool on_message(ProcessId from, const MessagePtr& message,
                    Lane lane) override {
      return owner_.async_send(from, peer_, message, lane);
    }

   private:
    UdpTransport& owner_;
    ProcessId peer_;
  };

  [[nodiscard]] Proc& proc_of(ProcessId id);
  [[nodiscard]] const Proc* find_proc(std::uint32_t raw_id) const;
  [[nodiscard]] std::uint16_t port_of(std::uint32_t raw_id) const;
  [[nodiscard]] ReliableLink& link_for(Proc& p, std::uint32_t peer,
                                       std::uint8_t lane);
  /// Advertised receive window towards `peer` (shrunk by parked frames).
  [[nodiscard]] std::uint32_t advertised_window(const Proc& p,
                                                std::uint32_t peer) const;

  /// All-local crossing: deliver the verdict in memory, then batch the
  /// same frame onto the shadow wire for byte-verified redelivery.
  bool shadow_cross(ProcessId from, std::size_t to_index,
                    const MessagePtr& message, Lane lane);
  bool async_send(ProcessId from, ProcessId peer, const MessagePtr& message,
                  Lane lane);
  /// Appends `frame` to the (peer, lane) pending batch, arming the flush
  /// timer when the batch opens and flushing when a budget fills.
  void batch_frame(Proc& p, const LinkKey& key, FramePtr frame);
  /// Stages + transmits the (peer, lane) pending batch, if any.
  void flush_batch(Proc& p, const LinkKey& key);
  /// Encodes + sends the staged batch `seq` (data datagram with piggyback
  /// ack), through the loss model.
  void transmit(Proc& p, std::uint32_t peer, std::uint8_t lane,
                ReliableLink& link, std::uint64_t seq);
  void send_ack(Proc& p, std::uint32_t peer, std::uint8_t lane,
                bool probe = false);
  void send_datagram(Proc& p, std::uint32_t peer, util::Bytes bytes,
                     bool is_ack);
  /// Drains p's socket through the recvmmsg ring, decoding straight from
  /// the ring buffers, then sends the drain's delayed acks.  Returns
  /// datagrams seen.
  std::size_t pump_proc(Proc& p);
  void handle_datagram(Proc& p, Datagram d);
  void deliver_ready(Proc& p, std::uint32_t peer, std::uint8_t lane,
                     ReliableLink& link);

  // --- timer wheel ------------------------------------------------------

  /// (Re-)arms the link's retransmission timer at its earliest deadline;
  /// keeps an already-armed earlier timer.
  void schedule_retx(Proc& p, const LinkKey& key, ReliableLink& link);
  /// Arms (if not already pending) the zero-window probe timer for `peer`.
  void arm_probe(Proc& p, std::uint32_t peer, std::int64_t deadline_us);
  /// Flushes p's send queue; on kernel backpressure arms the retry timer.
  void flush_sendq(Proc& p);
  /// Advances the wheel to `now_us`, dispatching fires.
  void pump_wheel(std::int64_t now_us);
  void on_timer(std::uint64_t payload, std::int64_t now_us);
  /// Retry budget exhausted towards key.first: crash the peer
  /// (distributed) — an all-local shadow link must never die.
  void link_death(Proc& p, const LinkKey& key);

  Network inner_;
  Config config_;
  DatagramLossModel loss_;
  UdpLaneStats lane_stats_;
  util::TimerWheel wheel_;
  std::uint64_t crossings_ = 0;             // shadow crossings since start
  std::vector<std::unique_ptr<Proc>> procs_;
  std::vector<std::unique_ptr<LocalAdapter>> adapters_;
  std::vector<std::unique_ptr<RemoteProxy>> proxies_;
  std::map<std::uint32_t, std::size_t> proc_index_;   // raw id -> procs_ idx
  std::map<std::uint32_t, std::uint16_t> peer_ports_; // distributed peers
  std::function<void(const Datagram&)> stray_handler_;
  std::vector<std::uint64_t> due_scratch_;  // retx fire scratch
  std::vector<int> fd_scratch_;             // pump wait scratch
  bool distributed_ = false;
};

}  // namespace svs::net
