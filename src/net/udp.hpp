// Thin RAII wrapper over a non-blocking IPv4 UDP socket bound to localhost.
//
// The UDP transport (udp_transport.hpp) only ever talks 127.0.0.1: the
// multi-process harness deploys every group member on one host and
// addresses peers by port, so the socket surface is deliberately narrow —
// bind loopback, send to a port, non-blocking recv, poll for readability.
// Everything that can fail throws util::ContractViolation with errno text;
// there is no partial-failure state to handle at call sites.
//
// The hot path is batched: send_batch/recv_batch ride sendmmsg/recvmmsg so
// a flood pays ~1 syscall per 64 datagrams instead of 1:1.  Both fall back
// to the portable single-call loop at runtime (first ENOSYS/EOPNOTSUPP, or
// set_use_mmsg(false) for tests), and per-socket IoCounters prove which
// path actually ran.  wait_readable() blocks via ppoll, so µs-precision
// deadlines (the transport's timer wheel ticks in µs) are honoured exactly
// instead of being rounded to whole milliseconds.
//
// SO_RCVBUF is exposed as a knob because shrinking it is the honest way to
// force *kernel-level* datagram loss on loopback (the SO_RCVBUF-starved
// stress mode of tests/udp_test.cpp): the reliability lane must recover
// losses it cannot even observe.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <utility>

#include "util/bytes.hpp"

namespace svs::net {

/// One outbound datagram for send_batch: a destination port plus a view of
/// the encoded bytes (valid only for the duration of the call).
struct OutDatagram {
  std::uint16_t port = 0;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;
};

/// Per-socket kernel I/O accounting.  send/recv_syscalls count every trip
/// into the kernel; the mmsg vs single split proves which path ran.
struct IoCounters {
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t mmsg_sends = 0;    // sendmmsg calls
  std::uint64_t mmsg_recvs = 0;    // recvmmsg calls
  std::uint64_t single_sends = 0;  // sendto calls
  std::uint64_t single_recvs = 0;  // recv calls
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t refused_drops = 0;  // ECONNREFUSED/EPERM, dropped as loss
};

/// Fixed-capacity receive ring for recv_batch: the socket fills the pooled
/// 64 KiB buffers in place and the transport decodes straight out of them —
/// no per-datagram Bytes copy.  Buffers are allocated lazily on first fill
/// and reused for the life of the ring.
class RecvRing {
 public:
  explicit RecvRing(std::size_t capacity = 32);

  [[nodiscard]] std::size_t capacity() const { return buffers_.size(); }
  /// Datagrams filled by the last recv_batch.
  [[nodiscard]] std::size_t count() const { return count_; }
  /// View of the i-th received datagram; valid until the next recv_batch.
  [[nodiscard]] std::span<const std::uint8_t> datagram(std::size_t i) const;

 private:
  friend class UdpSocket;
  std::vector<util::Bytes> buffers_;
  std::vector<std::size_t> lengths_;
  std::size_t count_ = 0;
};

class UdpSocket {
 public:
  /// Creates a non-blocking socket bound to 127.0.0.1:`port` (0 = kernel
  /// picks an ephemeral port).  Throws util::ContractViolation on failure.
  explicit UdpSocket(std::uint16_t port = 0);
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Shrinks (or grows) the kernel receive buffer.  The kernel clamps to
  /// its own minimum; rcvbuf() reports what actually took effect.
  void set_rcvbuf(int bytes);
  [[nodiscard]] int rcvbuf() const;

  /// Sends one datagram to 127.0.0.1:`port`.  Returns false if the kernel
  /// transiently refused it (full send buffer — the caller's retransmission
  /// lane covers it, like any other lost datagram).
  bool send_to(std::uint16_t port, const std::uint8_t* data, std::size_t size);

  /// Sends `items` strictly in order, batching up to 64 per sendmmsg.
  /// `sent` counts consumed items: accepted by the kernel, or refused
  /// (ECONNREFUSED/EPERM) and dropped as ordinary datagram loss.  Returns
  /// false when the kernel blocked (EAGAIN/ENOBUFS): items[sent:] remain
  /// unsent and a later call resumes from the tail without reordering.
  bool send_batch(std::span<const OutDatagram> items, std::size_t& sent);

  /// Fills `ring` from the socket with one recvmmsg (non-blocking) and
  /// returns the datagram count.  A return shorter than the ring capacity
  /// means the socket is drained — no extra probe syscall needed.
  std::size_t recv_batch(RecvRing& ring);

  [[nodiscard]] const IoCounters& io_counters() const { return counters_; }

  /// Forces the portable single-call path (fallback-equivalence tests and
  /// kernels without sendmmsg/recvmmsg — the first ENOSYS flips it too).
  void set_use_mmsg(bool on) { use_mmsg_ = on; }

  /// Blocks until any of `fds` is readable or `timeout_us` elapses, with
  /// microsecond precision (ppoll).  Returns true when at least one is
  /// readable.
  static bool wait_readable(std::span<const int> fds, std::int64_t timeout_us);

 private:
  enum class SendResult { ok, blocked, refused };
  SendResult send_one(std::uint16_t port, const std::uint8_t* data,
                      std::size_t size);
  void close_fd() noexcept;

  int fd_ = -1;
  std::uint16_t port_ = 0;
  bool use_mmsg_ = true;
  IoCounters counters_;
};

/// Per-process FIFO of encoded datagrams awaiting kernel acceptance.  The
/// transport stages everything here and flushes through send_batch; when
/// the kernel blocks mid-batch the unsent tail stays queued in order, so a
/// link's frames are never reordered by backpressure.
class SendQueue {
 public:
  /// Generous ceiling: beyond it the *newest* datagram is dropped (counted)
  /// — the retransmission lane recovers it like any other loss.
  static constexpr std::size_t kMaxQueue = 8192;

  void push(std::uint16_t port, util::Bytes payload);

  /// Drains in order through `send` (the send_batch signature).  Returns
  /// true when fully drained, false when the sender blocked.  Templated so
  /// tests can drive partial-send resume without a real kernel.
  template <typename Sender>
  bool flush_with(Sender&& send) {
    while (!items_.empty()) {
      OutDatagram batch[kFlushChunk];
      const std::size_t n = std::min(items_.size(), kFlushChunk);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& [port, payload] = items_[i];
        batch[i] = OutDatagram{port, payload.data(), payload.size()};
      }
      std::size_t sent = 0;
      const bool drained = send(std::span<const OutDatagram>(batch, n), sent);
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(sent));
      if (!drained) return false;
    }
    return true;
  }

  bool flush(UdpSocket& socket) {
    return flush_with([&socket](std::span<const OutDatagram> items,
                                std::size_t& sent) {
      return socket.send_batch(items, sent);
    });
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::uint64_t overflow_drops() const { return overflow_drops_; }

 private:
  static constexpr std::size_t kFlushChunk = 64;
  std::deque<std::pair<std::uint16_t, util::Bytes>> items_;
  std::uint64_t overflow_drops_ = 0;
};

}  // namespace svs::net
