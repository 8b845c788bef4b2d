#include "net/udp_transport.hpp"

#include <time.h>

#include <algorithm>
#include <limits>
#include <string>

#include "net/codec.hpp"
#include "net/fault_injector.hpp"
#include "sim/fault_plan.hpp"
#include "util/contracts.hpp"

namespace svs::net {
namespace {

constexpr std::uint8_t lane_byte_of(Lane lane) {
  return lane == Lane::data ? 0 : 1;
}

constexpr Lane lane_of(std::uint8_t lane_byte) {
  return lane_byte == 0 ? Lane::data : Lane::control;
}

/// Pacing of zero-window probes (real time): fast enough that a reopened
/// receiver resumes promptly, slow enough not to flood a stalled one.
constexpr std::int64_t kProbeIntervalUs = 100'000;

/// Retry cadence when the kernel blocks a send-queue flush (ENOBUFS /
/// EAGAIN): short — loopback send buffers drain in microseconds.
constexpr std::int64_t kSendRetryUs = 200;

/// All-local service cadence: every this-many shadow crossings the
/// transport takes a service turn even if no wheel deadline is due, so the
/// shadow wire keeps pace with a hot crossing loop.
constexpr std::uint64_t kServiceEvery = 32;

/// A shadow crossing blocked on window space gives up after this much real
/// time without progress — a wedged shadow wire is a harness bug, not a
/// protocol state.
constexpr std::int64_t kShadowStallBudgetUs = 10'000'000;

/// Wheel payload packing: kind(4) | proc index(16) | peer(32) | lane(8).
enum : std::uint64_t {
  kTimerRetx = 1,
  kTimerBatch = 2,
  kTimerProbe = 3,
  kTimerSendq = 4,
};

constexpr std::uint64_t timer_payload(std::uint64_t kind, std::size_t proc,
                                      std::uint32_t peer, std::uint8_t lane) {
  return (kind << 60) | ((static_cast<std::uint64_t>(proc) & 0xFFFF) << 44) |
         (static_cast<std::uint64_t>(peer) << 12) |
         (static_cast<std::uint64_t>(lane) << 4);
}

/// Encoded cost of one batched frame: its bytes plus its length varint.
constexpr std::size_t frame_cost(std::size_t frame_bytes) {
  std::size_t varint = 1;
  for (std::uint64_t v = frame_bytes; v >= 0x80; v >>= 7) ++varint;
  return frame_bytes + varint;
}

}  // namespace

// ---------------------------------------------------------------------------
// DatagramLossModel

void DatagramLossModel::set_link_rate(std::uint32_t from, std::uint32_t to,
                                      double rate) {
  SVS_REQUIRE(rate >= 0.0 && rate < 1.0, "loss rate out of [0, 1)");
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  links_[key].rate = rate;
}

bool DatagramLossModel::drop(std::uint32_t from, std::uint32_t to) {
  const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
  const auto it = links_.find(key);
  const double rate =
      (it != links_.end() && it->second.rate) ? *it->second.rate : default_rate_;
  if (rate <= 0.0) return false;
  LinkState& state = links_[key];
  if (!state.rng) state.rng = sim::Rng::stream(seed_, key);
  return state.rng->chance(rate);
}

// ---------------------------------------------------------------------------
// ReliableLink

namespace {

/// RTO with +/- 25% jitter, so synchronized links desynchronize their
/// retransmission bursts.
std::int64_t jittered(sim::Rng& rng, std::int64_t rto_us) {
  const std::int64_t quarter = rto_us / 4;
  return rto_us - quarter +
         static_cast<std::int64_t>(
             rng.below(static_cast<std::uint64_t>(2 * quarter + 1)));
}

}  // namespace

std::uint64_t ReliableLink::stage(FramePtr frame, std::int64_t now_us) {
  std::vector<FramePtr> batch;
  batch.push_back(std::move(frame));
  return stage(std::move(batch), now_us);
}

std::uint64_t ReliableLink::stage(std::vector<FramePtr> frames,
                                  std::int64_t now_us) {
  SVS_REQUIRE(!dead_, "staging a batch on a dead link");
  SVS_REQUIRE(!frames.empty() &&
                  frames.size() <= Datagram::kMaxBatchFrames,
              "batch size out of bounds");
  InFlight f;
  f.seq = next_seq_++;
  f.frames = std::move(frames);
  f.rto_us = config_.rto_base_us;
  f.deadline_us = now_us + jittered(rng_, f.rto_us);
  in_flight_frames_ += f.frames.size();
  in_flight_.push_back(std::move(f));
  return in_flight_.back().seq;
}

const std::vector<FramePtr>* ReliableLink::frames_of(std::uint64_t seq) const {
  for (const InFlight& f : in_flight_) {
    if (f.seq == seq) return &f.frames;
  }
  return nullptr;
}

std::int64_t ReliableLink::next_deadline() const {
  std::int64_t earliest = std::numeric_limits<std::int64_t>::max();
  for (const InFlight& f : in_flight_) {
    earliest = std::min(earliest, f.deadline_us);
  }
  return earliest;
}

void ReliableLink::collect_due(std::int64_t now_us,
                               std::vector<std::uint64_t>& due) {
  for (InFlight& f : in_flight_) {
    if (f.deadline_us > now_us) continue;
    if (f.retries >= config_.max_retries) {
      // Retry budget exhausted: presume the peer crashed.  Drop the window —
      // these frames can only reach a process the membership layer is about
      // to exclude.
      dead_ = true;
      ++stats_.link_resets;
      in_flight_.clear();
      in_flight_frames_ = 0;
      due.clear();
      return;
    }
    ++f.retries;
    f.rto_us = std::min(f.rto_us * 2, config_.rto_max_us);
    f.deadline_us = now_us + jittered(rng_, f.rto_us);
    ++stats_.retransmissions;
    due.push_back(f.seq);
  }
}

void ReliableLink::on_ack(const AckBlock& ack) {
  peer_window_ = ack.window;
  while (!in_flight_.empty() && in_flight_.front().seq <= ack.cum) {
    in_flight_frames_ -= in_flight_.front().frames.size();
    in_flight_.pop_front();
  }
  if (ack.sacks.empty() || in_flight_.empty()) return;
  std::erase_if(in_flight_, [this, &ack](const InFlight& f) {
    for (const AckBlock::Range& r : ack.sacks) {
      if (f.seq >= r.first && f.seq <= r.last) {
        in_flight_frames_ -= f.frames.size();
        return true;
      }
    }
    return false;
  });
}

bool ReliableLink::accept(std::uint64_t seq,
                          std::vector<util::Bytes> payloads) {
  SVS_REQUIRE(seq >= 1, "link sequence numbers start at 1");
  if (seq <= cum_ || out_of_order_.contains(seq)) {
    ++stats_.duplicate_drops;
    return false;
  }
  out_of_order_.emplace(seq, std::move(payloads));
  // Drain the run now contiguous with the frontier; batches flatten into
  // the ready queue in (batch seq, in-batch) order.
  for (auto it = out_of_order_.begin();
       it != out_of_order_.end() && it->first == cum_ + 1;
       it = out_of_order_.erase(it)) {
    for (util::Bytes& payload : it->second) {
      ready_.emplace_back(it->first, std::move(payload));
    }
    ++cum_;
  }
  return true;
}

bool ReliableLink::next_ready(std::uint64_t& seq, util::Bytes& payload) {
  if (ready_.empty()) return false;
  seq = ready_.front().first;
  payload = std::move(ready_.front().second);
  ready_.pop_front();
  return true;
}

AckBlock ReliableLink::ack_state(std::uint32_t window) const {
  AckBlock ack;
  ack.cum = cum_;
  ack.window = window;
  // Contiguous out-of-order keys merge into ranges; std::map iteration is
  // ascending, and every key is >= cum_ + 2 (cum_ + 1 would have drained),
  // so the encoder's canonical-form requirement holds by construction.
  for (const auto& [seq, bytes] : out_of_order_) {
    if (!ack.sacks.empty() && ack.sacks.back().last + 1 == seq) {
      ack.sacks.back().last = seq;
    } else {
      if (ack.sacks.size() == Datagram::kMaxSackRanges) break;
      ack.sacks.push_back(AckBlock::Range{seq, seq});
    }
  }
  return ack;
}

// ---------------------------------------------------------------------------
// UdpTransport

namespace {

/// Seeds the loss model and the per-link RTO jitter streams.
constexpr std::uint64_t kLaneSeed = 0x0DD5'0CE7;

}  // namespace

UdpTransport::UdpTransport(sim::Simulator& simulator, Config config)
    : inner_(simulator, config.network,
             config.bind_local ? Network::Hold::marked
                               : Network::Hold::every),
      config_(config),
      loss_(kLaneSeed), wheel_(1) {
  loss_.set_default_rate(config.loss_rate);
  // Seat the wheel cursor at the present so the first real arm is a direct
  // placement instead of a multi-level cascade walk from tick 0.
  wheel_.advance(static_cast<std::uint64_t>(mono_us()),
                 [](std::uint64_t) {});
  if (config_.bind_local) {
    distributed_ = true;
    procs_.push_back(std::make_unique<Proc>(config_.bind_port));
    if (config_.rcvbuf_bytes > 0) {
      procs_.front()->socket.set_rcvbuf(config_.rcvbuf_bytes);
    }
  }
}

void UdpTransport::attach(ProcessId id, Endpoint& endpoint) {
  if (distributed_) {
    Proc& p = *procs_.front();
    SVS_REQUIRE(p.real == nullptr,
                "distributed mode hosts exactly one local process");
    p.id = id;
    p.real = &endpoint;
    proc_index_[id.value()] = 0;
    // The real endpoint is registered with the inner network directly:
    // self-sends stay entirely in-memory (virtual loopback link), exactly
    // like the other backends.
    inner_.attach(id, endpoint);
    return;
  }
  SVS_REQUIRE(!proc_index_.contains(id.value()), "process already attached");
  auto proc = std::make_unique<Proc>(std::uint16_t{0});
  if (config_.rcvbuf_bytes > 0) proc->socket.set_rcvbuf(config_.rcvbuf_bytes);
  proc->id = id;
  proc->real = &endpoint;
  proc->index = procs_.size();
  proc_index_[id.value()] = procs_.size();
  procs_.push_back(std::move(proc));
  adapters_.push_back(std::make_unique<LocalAdapter>(*this, procs_.size() - 1));
  inner_.attach(id, *adapters_.back());
}

void UdpTransport::add_peer(ProcessId id, std::uint16_t port) {
  SVS_REQUIRE(distributed_, "add_peer requires bind_local mode");
  SVS_REQUIRE(port != 0, "peer port must be non-zero");
  SVS_REQUIRE(!peer_ports_.contains(id.value()), "peer already added");
  peer_ports_[id.value()] = port;
  proxies_.push_back(std::make_unique<RemoteProxy>(*this, id));
  inner_.attach(id, *proxies_.back());
}

std::uint16_t UdpTransport::local_port(ProcessId id) const {
  if (distributed_) return procs_.front()->socket.port();
  const Proc* p = find_proc(id.value());
  SVS_REQUIRE(p != nullptr, "process not hosted by this transport");
  return p->socket.port();
}

UdpSocket& UdpTransport::socket_of(ProcessId id) {
  if (distributed_) return procs_.front()->socket;
  return proc_of(id).socket;
}

bool UdpTransport::links_idle() const {
  for (const auto& p : procs_) {
    for (const auto& [key, link] : p->links) {
      if (!link->all_acked()) return false;
    }
    for (const auto& [key, batch] : p->pending) {
      if (!batch.frames.empty()) return false;
    }
    if (!p->sendq.empty()) return false;
    for (const auto& [key, fifo] : p->expected) {
      if (!fifo.empty()) return false;
    }
  }
  return true;
}

UdpLaneStats UdpTransport::lane_stats() const {
  UdpLaneStats s = lane_stats_;
  for (const auto& p : procs_) {
    const IoCounters& io = p->socket.io_counters();
    s.syscalls_sent += io.send_syscalls;
    s.syscalls_recvd += io.recv_syscalls;
    s.mmsg_sends += io.mmsg_sends;
    s.mmsg_recvs += io.mmsg_recvs;
    s.single_sends += io.single_sends;
    s.single_recvs += io.single_recvs;
    s.send_queue_drops += p->sendq.overflow_drops();
  }
  s.wheel_cascades = wheel_.cascades();
  return s;
}

void UdpTransport::resume(ProcessId to) {
  if (distributed_ && !procs_.empty() && procs_.front()->real != nullptr &&
      procs_.front()->id == to) {
    // The local node freed buffer space: drain frames parked by inbound
    // backpressure, then re-advertise the reopened window to each sender.
    Proc& p = *procs_.front();
    for (auto& [peer, parked] : p.stalled) {
      if (parked.empty()) continue;
      while (!parked.empty() &&
             p.real->on_message(ProcessId(peer), parked.front(), Lane::data)) {
        parked.pop_front();
      }
      send_ack(p, peer, lane_byte_of(Lane::data));
    }
    flush_sendq(p);
  }
  inner_.resume(to);
}

void UdpTransport::set_fault_injector(FaultInjector* injector) {
  inner_.set_fault_injector(injector);
  // The planned injector models loss recovery in virtual time identically
  // on every backend; this backend additionally realizes the loss as real
  // datagram drops recovered by real retransmissions.
  if (const auto* planned = dynamic_cast<PlannedFaultInjector*>(injector)) {
    for (const sim::FaultSpec& f : planned->plan().faults) {
      if (f.kind != sim::FaultKind::loss) continue;
      if (f.a == sim::FaultSpec::kAllLinks) {
        loss_.set_default_rate(f.probability);
      } else {
        loss_.set_link_rate(f.a, f.b, f.probability);
      }
    }
  }
}

std::int64_t UdpTransport::mono_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000 +
         ts.tv_nsec / 1'000;
}

UdpTransport::Proc& UdpTransport::proc_of(ProcessId id) {
  const auto it = proc_index_.find(id.value());
  SVS_REQUIRE(it != proc_index_.end(), "process not hosted by this transport");
  return *procs_[it->second];
}

const UdpTransport::Proc* UdpTransport::find_proc(std::uint32_t raw_id) const {
  const auto it = proc_index_.find(raw_id);
  return it == proc_index_.end() ? nullptr : procs_[it->second].get();
}

std::uint16_t UdpTransport::port_of(std::uint32_t raw_id) const {
  if (const Proc* p = find_proc(raw_id)) return p->socket.port();
  const auto it = peer_ports_.find(raw_id);
  SVS_REQUIRE(it != peer_ports_.end(), "unknown datagram peer");
  return it->second;
}

ReliableLink& UdpTransport::link_for(Proc& p, std::uint32_t peer,
                                     std::uint8_t lane) {
  const LinkKey key{peer, lane};
  auto it = p.links.find(key);
  if (it == p.links.end()) {
    // Stable per-(endpoint, peer, lane) jitter stream: link creation order
    // never reshuffles another link's RTO jitter.
    const std::uint64_t stream =
        (static_cast<std::uint64_t>(p.id.value()) << 33) ^
        (static_cast<std::uint64_t>(peer) << 1) ^ lane;
    it = p.links
             .emplace(key, std::make_unique<ReliableLink>(
                               config_.link,
                               sim::Rng::stream(kLaneSeed, stream),
                               lane_stats_))
             .first;
  }
  return *it->second;
}

std::uint32_t UdpTransport::advertised_window(const Proc& p,
                                              std::uint32_t peer) const {
  // All-local shadow traffic is verified, not delivered, so the receiver
  // never parks frames; the full window is always open.
  if (!distributed_) return config_.link.window;
  std::size_t parked = 0;
  if (const auto it = p.stalled.find(peer); it != p.stalled.end()) {
    parked = it->second.size();
  }
  const std::uint32_t window = config_.link.window;
  return parked >= window ? 0
                          : window - static_cast<std::uint32_t>(parked);
}

bool UdpTransport::shadow_cross(ProcessId from, std::size_t to_index,
                                const MessagePtr& message, Lane lane) {
  Proc& receiver = *procs_[to_index];
  Proc& sender = proc_of(from);
  const std::uint8_t lane_byte = lane_byte_of(lane);
  const LinkKey key{receiver.id.value(), lane_byte};
  ReliableLink& link = link_for(sender, receiver.id.value(), lane_byte);

  const bool cached = message->frame_cached();
  FramePtr frame = Codec::shared_frame(*message);
  ++(cached ? lane_stats_.frame_reuses : lane_stats_.frame_encodes);

  // The verdict is computed synchronously in memory from the SAME encoded
  // bytes the wire will carry: the receiver sees a message decoded from
  // `frame`, never the sender's object, and protocol histories stay
  // bit-identical to the sim backend.  Nested crossings triggered by this
  // delivery recurse through here and complete before we stage our own
  // frame — FIFO per link holds because the recursion happens before this
  // crossing touches the link.
  MessagePtr fresh = Codec::decode(*frame);
  const bool accepted = receiver.real->on_message(from, fresh, lane);

  // Shadow wire: the frame still crosses the kernel — batched, staged on
  // the reliable link, lost/retransmitted/acked in real time — and the
  // receiver byte-verifies it against this FIFO in deliver_ready().
  SVS_ASSERT(!link.dead(), "all-local reliable link exhausted its retries");
  std::size_t batched = 0;
  if (const auto it = sender.pending.find(key); it != sender.pending.end()) {
    batched = it->second.frames.size();
  }
  if (link.send_room() <= batched) {
    // Window full (counting frames batched but not yet staged): service the
    // shadow wire until acks open room.  This throttles only the shadow
    // traffic — the protocol already has its verdict.
    const std::int64_t start = mono_us();
    for (;;) {
      pump(1'000);
      SVS_ASSERT(!link.dead(),
                 "all-local reliable link exhausted its retries");
      batched = 0;
      if (const auto it = sender.pending.find(key);
          it != sender.pending.end()) {
        batched = it->second.frames.size();
      }
      if (link.send_room() > batched) break;
      SVS_ASSERT(mono_us() - start < kShadowStallBudgetUs,
                 "shadow crossing made no window progress");
    }
  }
  receiver.expected[LinkKey{from.value(), lane_byte}].push_back(frame);
  batch_frame(sender, key, std::move(frame));

  // Service cadence: a full transport turn (sockets drained, timers fired)
  // every kServiceEvery crossings keeps the shadow wire flowing without a
  // recvmmsg per crossing.  In between, a due wheel deadline only needs its
  // timers fired and the resulting datagrams flushed — batch-flush and retx
  // timers transmit, they never require an inbound pump — so the cheap path
  // skips the per-socket recv syscalls entirely.
  ++crossings_;
  if (crossings_ % kServiceEvery == 0) {
    pump(0);
  } else if (wheel_.next_deadline_us() <=
             static_cast<std::uint64_t>(mono_us())) {
    pump_wheel(mono_us());
    for (const auto& q : procs_) flush_sendq(*q);
  }
  return accepted;
}

bool UdpTransport::async_send(ProcessId from, ProcessId peer,
                              const MessagePtr& message, Lane lane) {
  Proc& p = proc_of(from);
  const std::uint8_t lane_byte = lane_byte_of(lane);
  const LinkKey key{peer.value(), lane_byte};
  ReliableLink& link = link_for(p, peer.value(), lane_byte);
  if (link.dead()) {
    // The peer was declared crashed (and crash-stopped in the inner
    // network); stragglers racing that declaration are swallowed exactly
    // like sends to a crashed sim process.
    if (const auto it = p.pending.find(key); it != p.pending.end()) {
      wheel_.cancel(it->second.timer);
      p.pending.erase(it);
    }
    return true;
  }
  std::size_t pending_frames = 0;
  if (const auto it = p.pending.find(key); it != p.pending.end()) {
    pending_frames = it->second.frames.size();
  }
  if (lane == Lane::data && link.send_room() <= pending_frames) {
    // Window full (counting frames already batched but not yet staged):
    // refuse, which stalls the inner link head — the standard data-lane
    // backpressure.  Probe pacing is only needed when the *link* window is
    // closed; a batch-occupancy stall resolves at the flush deadline.
    if (!link.can_send()) arm_probe(p, peer.value(), mono_us());
    return false;
  }
  const bool cached = message->frame_cached();
  FramePtr frame = Codec::shared_frame(*message);
  ++(cached ? lane_stats_.frame_reuses : lane_stats_.frame_encodes);
  batch_frame(p, key, std::move(frame));
  return true;
}

void UdpTransport::batch_frame(Proc& p, const LinkKey& key, FramePtr frame) {
  // Per-destination batching: coalesce into the (peer, lane) batch; flush
  // first if this frame would overflow the byte budget or the frame cap.
  const std::size_t cost = frame_cost(frame->size());
  if (const auto it = p.pending.find(key);
      it != p.pending.end() && !it->second.frames.empty() &&
      (it->second.bytes + cost > config_.batch_bytes ||
       it->second.frames.size() >= Datagram::kMaxBatchFrames)) {
    flush_batch(p, key);
  }
  Proc::PendingBatch& batch = p.pending[key];
  if (batch.frames.empty()) {
    batch.timer = wheel_.arm(
        static_cast<std::uint64_t>(mono_us() + config_.batch_delay_us),
        timer_payload(kTimerBatch, p.index, key.first, key.second));
  }
  batch.frames.push_back(std::move(frame));
  batch.bytes += cost;
  if (batch.bytes >= config_.batch_bytes ||
      batch.frames.size() >= Datagram::kMaxBatchFrames) {
    flush_batch(p, key);
  }
}

void UdpTransport::flush_batch(Proc& p, const LinkKey& key) {
  const auto it = p.pending.find(key);
  if (it == p.pending.end()) return;
  wheel_.cancel(it->second.timer);  // no-op when the timer just fired
  std::vector<FramePtr> frames = std::move(it->second.frames);
  p.pending.erase(it);
  if (frames.empty()) return;
  ReliableLink& link = link_for(p, key.first, key.second);
  if (link.dead()) return;  // peer died while the batch was open: swallow
  ++lane_stats_.batch_flushes;
  if (frames.size() >= 2) lane_stats_.frames_batched += frames.size();
  const std::uint64_t seq = link.stage(std::move(frames), mono_us());
  transmit(p, key.first, key.second, link, seq);
}

void UdpTransport::transmit(Proc& p, std::uint32_t peer, std::uint8_t lane,
                            ReliableLink& link, std::uint64_t seq) {
  const std::vector<FramePtr>* frames = link.frames_of(seq);
  SVS_ASSERT(frames != nullptr && !frames->empty(),
             "transmitting a retired batch");
  // Piggyback the reverse direction's ack state on every data datagram.
  ReliableLink& reverse = link_for(p, peer, lane);
  const AckBlock ack = reverse.ack_state(advertised_window(p, peer));
  util::Bytes bytes = Datagram::encode_data(
      p.id.value(), peer, lane, seq, ack,
      std::span<const FramePtr>(frames->data(), frames->size()));
  send_datagram(p, peer, std::move(bytes), /*is_ack=*/false);
  schedule_retx(p, LinkKey{peer, lane}, link);
}

void UdpTransport::send_ack(Proc& p, std::uint32_t peer, std::uint8_t lane,
                            bool probe) {
  ReliableLink& link = link_for(p, peer, lane);
  AckBlock ack = link.ack_state(advertised_window(p, peer));
  ack.window_probe = probe;
  if (probe) ++lane_stats_.zero_window_probes;
  util::Bytes bytes = Datagram::encode_ack(p.id.value(), peer, lane, ack);
  send_datagram(p, peer, std::move(bytes), /*is_ack=*/true);
}

void UdpTransport::send_datagram(Proc& p, std::uint32_t peer,
                                 util::Bytes bytes, bool is_ack) {
  // The loss draw happens at enqueue time so each directed link's stream
  // is consumed in transmit order, independent of kernel pacing.
  if (loss_.drop(p.id.value(), peer)) {
    ++lane_stats_.injected_losses;
    return;
  }
  ++lane_stats_.datagrams_sent;
  lane_stats_.datagram_bytes_sent += bytes.size();
  if (is_ack) {
    ++lane_stats_.ack_datagrams;
    lane_stats_.ack_bytes += bytes.size();
  }
  // Queued, not yet on the wire: flush_sendq ships the queue through
  // sendmmsg; a kernel refusal there is recovered by the retransmission
  // lane like any other loss.
  p.sendq.push(port_of(peer), std::move(bytes));
}

std::size_t UdpTransport::pump_proc(Proc& p) {
  std::size_t handled = 0;
  for (;;) {
    const std::size_t n = p.socket.recv_batch(p.ring);
    for (std::size_t i = 0; i < n; ++i) {
      ++lane_stats_.datagrams_received;
      ++handled;
      try {
        // Decode straight from the ring's pooled buffer — no per-datagram
        // copy into a Bytes.
        handle_datagram(p, Datagram::decode(p.ring.datagram(i)));
      } catch (const util::ContractViolation&) {
        ++lane_stats_.malformed_datagrams;
      }
    }
    if (n < p.ring.capacity()) break;  // drained; no extra probe syscall
  }
  // Delayed acks: one cumulative ack per (peer, lane) the drain touched,
  // instead of one per datagram.
  if (!p.ack_pending.empty()) {
    for (const LinkKey& key : p.ack_pending) {
      send_ack(p, key.first, key.second);
    }
    p.ack_pending.clear();
  }
  return handled;
}

void UdpTransport::handle_datagram(Proc& p, Datagram d) {
  if (d.kind == Datagram::Kind::join || d.kind == Datagram::Kind::roster) {
    // Pre-protocol traffic belongs to the deployment harness, not the lane.
    if (stray_handler_) {
      stray_handler_(d);
    } else {
      ++lane_stats_.stray_datagrams;
    }
    return;
  }
  const bool known_sender = find_proc(d.from) != nullptr ||
                            peer_ports_.contains(d.from);
  if (d.to != p.id.value() || !known_sender) {
    ++lane_stats_.stray_datagrams;
    return;
  }
  ReliableLink& link = link_for(p, d.from, d.lane);
  const bool was_blocked = !link.all_acked() || !link.can_send();
  link.on_ack(d.ack);
  if (d.ack.window_probe) p.ack_pending.insert(LinkKey{d.from, d.lane});
  if (distributed_ && was_blocked && link.can_send()) {
    // The ack opened window (or retired the blocking frames): retry inner
    // links stalled towards this peer.
    if (const auto it = p.probe_timers.find(d.from);
        it != p.probe_timers.end()) {
      wheel_.cancel(it->second);
      p.probe_timers.erase(it);
    }
    inner_.resume(ProcessId(d.from));
  } else if (distributed_ && was_blocked && !link.can_send() &&
             d.lane == lane_byte_of(Lane::data)) {
    // The ack retired frames yet the window stays closed (typically a
    // zero-window advertisement from a parked receiver).  With batching,
    // the send that would have armed probe pacing may never recur — the
    // refusal happened on batch occupancy while the link was still open —
    // so arm it here; the probe timer re-fires until the window reopens.
    arm_probe(p, d.from, mono_us());
  }
  if (d.kind == Datagram::Kind::ack) return;

  // Data datagram: feed the receiver half and deliver whatever the frontier
  // released; mark the link for the drain-end ack unconditionally
  // (duplicates too — the sender is retransmitting precisely because it
  // missed our ack).
  if (link.accept(d.seq, std::move(d.payloads))) {
    deliver_ready(p, d.from, d.lane, link);
  }
  p.ack_pending.insert(LinkKey{d.from, d.lane});
}

void UdpTransport::deliver_ready(Proc& p, std::uint32_t peer,
                                 std::uint8_t lane_byte, ReliableLink& link) {
  std::uint64_t seq = 0;
  util::Bytes payload;
  if (!distributed_) {
    // Shadow verification: the endpoint already saw this message at
    // crossing time; the wire's job is to reproduce the exact bytes, in
    // link order.  Frames count as delivered only here — a run's
    // frames_delivered certifies the wire, not the in-memory shortcut.
    // Verification is endpoint-independent, so shadow traffic drains and
    // acks even when the proc has since crash-stopped in the inner network.
    auto& fifo = p.expected[LinkKey{peer, lane_byte}];
    while (link.next_ready(seq, payload)) {
      SVS_ASSERT(!fifo.empty(),
                 "shadow wire delivered a frame no crossing recorded");
      SVS_ASSERT(payload == *fifo.front(),
                 "shadow wire bytes diverged from the crossing's frame");
      fifo.pop_front();
      ++lane_stats_.frames_delivered;
    }
    return;
  }
  const Lane lane = lane_of(lane_byte);
  while (link.next_ready(seq, payload)) {
    MessagePtr fresh;
    try {
      fresh = Codec::decode(payload);
    } catch (const util::ContractViolation&) {
      // The lane already consumed the seq; an undecodable frame is dropped
      // like any other hostile datagram.
      ++lane_stats_.malformed_datagrams;
      continue;
    }
    ++lane_stats_.frames_delivered;
    if (lane == Lane::control) {
      // Control is never refused (§3.1).
      p.real->on_message(ProcessId(peer), fresh, lane);
      continue;
    }
    auto& parked = p.stalled[peer];
    if (!parked.empty() ||
        !p.real->on_message(ProcessId(peer), fresh, lane)) {
      // Inbound backpressure: park in link order and shrink the advertised
      // window; resume() drains and re-advertises.
      parked.push_back(std::move(fresh));
      ++lane_stats_.inbound_stalls;
    }
  }
}

// ---------------------------------------------------------------------------
// Timer wheel plumbing

void UdpTransport::schedule_retx(Proc& p, const LinkKey& key,
                                 ReliableLink& link) {
  const std::int64_t deadline = link.next_deadline();
  const auto it = p.retx_timers.find(key);
  if (deadline == std::numeric_limits<std::int64_t>::max()) {
    if (it != p.retx_timers.end()) {
      wheel_.cancel(it->second.id);
      p.retx_timers.erase(it);
    }
    return;
  }
  if (it != p.retx_timers.end() && wheel_.pending(it->second.id)) {
    if (it->second.deadline_us <= deadline) return;  // earlier timer wins
    wheel_.cancel(it->second.id);
  }
  p.retx_timers[key] = ArmedTimer{
      wheel_.arm(static_cast<std::uint64_t>(deadline),
                 timer_payload(kTimerRetx, p.index, key.first, key.second)),
      deadline};
}

void UdpTransport::arm_probe(Proc& p, std::uint32_t peer,
                             std::int64_t deadline_us) {
  if (const auto it = p.probe_timers.find(peer);
      it != p.probe_timers.end() && wheel_.pending(it->second)) {
    return;
  }
  p.probe_timers[peer] =
      wheel_.arm(static_cast<std::uint64_t>(deadline_us),
                 timer_payload(kTimerProbe, p.index, peer, 0));
}

void UdpTransport::flush_sendq(Proc& p) {
  if (p.sendq.empty()) return;
  if (p.sendq.flush(p.socket)) {
    if (p.sendq_timer != util::TimerWheel::kInvalidTimer) {
      wheel_.cancel(p.sendq_timer);
      p.sendq_timer = util::TimerWheel::kInvalidTimer;
    }
    return;
  }
  // Kernel backpressure: retry on a short wheel deadline so the queue
  // drains as soon as the send buffer does.
  if (!wheel_.pending(p.sendq_timer)) {
    p.sendq_timer =
        wheel_.arm(static_cast<std::uint64_t>(mono_us() + kSendRetryUs),
                   timer_payload(kTimerSendq, p.index, 0, 0));
  }
}

void UdpTransport::pump_wheel(std::int64_t now_us) {
  auto fire = [this, now_us](std::uint64_t payload) {
    on_timer(payload, now_us);
  };
  wheel_.advance(static_cast<std::uint64_t>(now_us), fire);
}

void UdpTransport::on_timer(std::uint64_t payload, std::int64_t now_us) {
  const std::uint64_t kind = payload >> 60;
  const std::size_t idx = (payload >> 44) & 0xFFFF;
  const auto peer = static_cast<std::uint32_t>((payload >> 12) & 0xFFFF'FFFF);
  const auto lane = static_cast<std::uint8_t>((payload >> 4) & 0xFF);
  if (idx >= procs_.size()) return;
  Proc& p = *procs_[idx];
  const LinkKey key{peer, lane};
  switch (kind) {
    case kTimerRetx: {
      p.retx_timers.erase(key);  // one timer per link; this one just fired
      const auto it = p.links.find(key);
      if (it == p.links.end()) return;
      ReliableLink& link = *it->second;
      if (link.dead()) return;
      due_scratch_.clear();
      link.collect_due(now_us, due_scratch_);
      if (link.dead()) {
        link_death(p, key);
        return;
      }
      for (const std::uint64_t s : due_scratch_) {
        transmit(p, peer, lane, link, s);
      }
      // A stale early fire (the due frame was acked meanwhile) re-arms at
      // the link's true next deadline.
      schedule_retx(p, key, link);
      return;
    }
    case kTimerBatch:
      flush_batch(p, key);
      return;
    case kTimerProbe: {
      p.probe_timers.erase(peer);
      const auto it = p.links.find(LinkKey{peer, lane_byte_of(Lane::data)});
      if (it == p.links.end()) return;
      ReliableLink& link = *it->second;
      if (link.dead()) return;
      if (link.can_send()) {
        inner_.resume(ProcessId(peer));
        return;
      }
      if (link.all_acked() && link.peer_window() == 0) {
        send_ack(p, peer, lane_byte_of(Lane::data), /*probe=*/true);
      }
      arm_probe(p, peer, now_us + kProbeIntervalUs);
      return;
    }
    case kTimerSendq:
      p.sendq_timer = util::TimerWheel::kInvalidTimer;
      flush_sendq(p);
      return;
    default:
      SVS_UNREACHABLE("unknown wheel timer kind");
  }
}

void UdpTransport::link_death(Proc& p, const LinkKey& key) {
  if (const auto it = p.pending.find(key); it != p.pending.end()) {
    wheel_.cancel(it->second.timer);
    p.pending.erase(it);
  }
  SVS_ASSERT(distributed_,
             "all-local reliable link exhausted its retries");
  // Retry budget exhausted: the peer is unreachable for good — declare it
  // crashed in the inner network so the failure-detection and membership
  // machinery take over (kill -9 becomes a crash fault).
  const ProcessId peer(key.first);
  if (!inner_.is_crashed(peer)) inner_.crash(peer);
}

// ---------------------------------------------------------------------------
// Service loop

std::size_t UdpTransport::pump(std::int64_t timeout_us) {
  std::int64_t now = mono_us();
  pump_wheel(now);
  std::size_t handled = 0;
  for (const auto& p : procs_) handled += pump_proc(*p);
  for (const auto& p : procs_) flush_sendq(*p);
  if (handled == 0 && timeout_us > 0) {
    fd_scratch_.clear();
    for (const auto& p : procs_) fd_scratch_.push_back(p->socket.fd());
    now = mono_us();
    std::int64_t wait = timeout_us;
    // Sleep no longer than the earliest wheel deadline: ppoll honours it
    // at µs precision, so a 200µs batch flush neither busy-spins nor
    // rounds up to a whole millisecond.
    const std::uint64_t due = wheel_.next_deadline_us();
    if (due != util::TimerWheel::kNever) {
      wait = std::clamp<std::int64_t>(
          static_cast<std::int64_t>(due) - now, 1, timeout_us);
    }
    if (UdpSocket::wait_readable(fd_scratch_, wait)) {
      for (const auto& p : procs_) handled += pump_proc(*p);
    }
    pump_wheel(mono_us());
    for (const auto& p : procs_) flush_sendq(*p);
  }
  return handled;
}

}  // namespace svs::net
