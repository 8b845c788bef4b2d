// _GNU_SOURCE before any header: sendmmsg/recvmmsg/ppoll are glibc
// extensions gated behind __USE_GNU.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "net/udp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "util/contracts.hpp"

namespace svs::net {
namespace {

// Largest UDP payload; every ring buffer is this size so any datagram fits.
constexpr std::size_t kDatagramMax = 65536;
// sendmmsg/recvmmsg vector length ceiling (bounds the stack-built header
// arrays; RecvRing capacity is REQUIREd to stay within it).
constexpr std::size_t kMaxVector = 64;

[[noreturn]] void fail(const char* what) {
  throw util::ContractViolation(std::string(what) + ": " +
                                std::strerror(errno));
}

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

RecvRing::RecvRing(std::size_t capacity) {
  SVS_REQUIRE(capacity >= 1 && capacity <= kMaxVector,
              "ring capacity must be in [1, 64]");
  buffers_.resize(capacity);
  lengths_.resize(capacity, 0);
}

std::span<const std::uint8_t> RecvRing::datagram(std::size_t i) const {
  SVS_REQUIRE(i < count_, "ring index past the filled count");
  return {buffers_[i].data(), lengths_[i]};
}

UdpSocket::UdpSocket(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) fail("socket(AF_INET, SOCK_DGRAM)");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) < 0) {
    close_fd();
    fail("fcntl(O_NONBLOCK)");
  }
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    close_fd();
    fail("bind(127.0.0.1)");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    close_fd();
    fail("getsockname");
  }
  port_ = ntohs(bound.sin_port);
}

UdpSocket::~UdpSocket() { close_fd(); }

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_), use_mmsg_(other.use_mmsg_),
      counters_(other.counters_) {
  other.fd_ = -1;
  other.port_ = 0;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    close_fd();
    fd_ = other.fd_;
    port_ = other.port_;
    use_mmsg_ = other.use_mmsg_;
    counters_ = other.counters_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void UdpSocket::close_fd() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void UdpSocket::set_rcvbuf(int bytes) {
  SVS_REQUIRE(fd_ >= 0, "socket closed");
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes) < 0) {
    fail("setsockopt(SO_RCVBUF)");
  }
}

int UdpSocket::rcvbuf() const {
  SVS_REQUIRE(fd_ >= 0, "socket closed");
  int bytes = 0;
  socklen_t len = sizeof bytes;
  if (::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, &len) < 0) {
    fail("getsockopt(SO_RCVBUF)");
  }
  return bytes;
}

UdpSocket::SendResult UdpSocket::send_one(std::uint16_t port,
                                          const std::uint8_t* data,
                                          std::size_t size) {
  const sockaddr_in addr = loopback_addr(port);
  ++counters_.send_syscalls;
  ++counters_.single_sends;
  const ssize_t n =
      ::sendto(fd_, data, size, 0, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr);
  if (n < 0) {
    // A full send buffer is backpressure: the caller resumes later.  A
    // refusal is just datagram loss as far as the reliability lane is
    // concerned.
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
      return SendResult::blocked;
    }
    if (errno == ECONNREFUSED || errno == EPERM) return SendResult::refused;
    fail("sendto(127.0.0.1)");
  }
  ++counters_.datagrams_sent;
  return SendResult::ok;
}

bool UdpSocket::send_to(std::uint16_t port, const std::uint8_t* data,
                        std::size_t size) {
  SVS_REQUIRE(fd_ >= 0, "socket closed");
  return send_one(port, data, size) == SendResult::ok;
}

bool UdpSocket::send_batch(std::span<const OutDatagram> items,
                           std::size_t& sent) {
  SVS_REQUIRE(fd_ >= 0, "socket closed");
  sent = 0;
  while (sent < items.size()) {
    if (!use_mmsg_) {
      const OutDatagram& d = items[sent];
      switch (send_one(d.port, d.data, d.size)) {
        case SendResult::ok:
          ++sent;
          break;
        case SendResult::refused:
          ++counters_.refused_drops;
          ++sent;
          break;
        case SendResult::blocked:
          return false;
      }
      continue;
    }
    const std::size_t chunk = std::min(items.size() - sent, kMaxVector);
    sockaddr_in addrs[kMaxVector];
    iovec iovs[kMaxVector];
    mmsghdr msgs[kMaxVector];
    for (std::size_t i = 0; i < chunk; ++i) {
      const OutDatagram& d = items[sent + i];
      addrs[i] = loopback_addr(d.port);
      iovs[i].iov_base = const_cast<std::uint8_t*>(d.data);
      iovs[i].iov_len = d.size;
      msgs[i] = mmsghdr{};
      msgs[i].msg_hdr.msg_name = &addrs[i];
      msgs[i].msg_hdr.msg_namelen = sizeof addrs[i];
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    ++counters_.send_syscalls;
    ++counters_.mmsg_sends;
    const int n = ::sendmmsg(fd_, msgs, static_cast<unsigned>(chunk), 0);
    if (n < 0) {
      if (errno == ENOSYS || errno == EOPNOTSUPP) {
        use_mmsg_ = false;  // kernel without sendmmsg: fall back for good
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS) {
        return false;
      }
      if (errno == ECONNREFUSED || errno == EPERM) {
        // The head datagram was refused: drop it as loss and keep going.
        ++counters_.refused_drops;
        ++sent;
        continue;
      }
      fail("sendmmsg(127.0.0.1)");
    }
    sent += static_cast<std::size_t>(n);
    counters_.datagrams_sent += static_cast<std::uint64_t>(n);
    // n < chunk means the (sent)-th datagram hit an error the kernel will
    // report on the next call; loop around and let that call classify it.
  }
  return true;
}

std::size_t UdpSocket::recv_batch(RecvRing& ring) {
  SVS_REQUIRE(fd_ >= 0, "socket closed");
  ring.count_ = 0;
  const std::size_t cap = ring.capacity();
  // Lazy buffer allocation: rings are cheap to hold, 64 KiB per slot is
  // only paid once the socket actually receives.
  for (std::size_t i = 0; i < cap; ++i) {
    if (ring.buffers_[i].size() != kDatagramMax) {
      ring.buffers_[i].resize(kDatagramMax);
    }
  }
  if (use_mmsg_) {
    iovec iovs[kMaxVector];
    mmsghdr msgs[kMaxVector];
    for (std::size_t i = 0; i < cap; ++i) {
      iovs[i].iov_base = ring.buffers_[i].data();
      iovs[i].iov_len = kDatagramMax;
      msgs[i] = mmsghdr{};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    ++counters_.recv_syscalls;
    ++counters_.mmsg_recvs;
    const int n = ::recvmmsg(fd_, msgs, static_cast<unsigned>(cap),
                             MSG_DONTWAIT, nullptr);
    if (n >= 0) {
      for (int i = 0; i < n; ++i) ring.lengths_[i] = msgs[i].msg_len;
      ring.count_ = static_cast<std::size_t>(n);
      counters_.datagrams_received += static_cast<std::uint64_t>(n);
      return ring.count_;
    }
    if (errno == ENOSYS || errno == EOPNOTSUPP) {
      use_mmsg_ = false;  // fall through to the single-call loop below
    } else if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
               errno == ECONNREFUSED) {
      return 0;
    } else {
      fail("recvmmsg");
    }
  }
  while (ring.count_ < cap) {
    ++counters_.recv_syscalls;
    ++counters_.single_recvs;
    const ssize_t n = ::recv(fd_, ring.buffers_[ring.count_].data(),
                             kDatagramMax, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
          errno == ECONNREFUSED) {
        break;
      }
      fail("recv");
    }
    ring.lengths_[ring.count_++] = static_cast<std::size_t>(n);
    ++counters_.datagrams_received;
  }
  return ring.count_;
}

bool UdpSocket::wait_readable(std::span<const int> fds,
                              std::int64_t timeout_us) {
  std::vector<pollfd> polls;
  polls.reserve(fds.size());
  for (const int fd : fds) polls.push_back(pollfd{fd, POLLIN, 0});
  // ppoll, not poll: the transport's timer wheel runs µs-resolution
  // deadlines (200µs batch flushes), which poll's whole-millisecond
  // timeout would round to spin-or-late.
  timespec ts{};
  if (timeout_us > 0) {
    ts.tv_sec = static_cast<time_t>(timeout_us / 1'000'000);
    ts.tv_nsec = static_cast<long>(timeout_us % 1'000'000) * 1'000;
  }
  const int n = ::ppoll(polls.data(), polls.size(), &ts, nullptr);
  if (n < 0) {
    if (errno == EINTR) return false;
    fail("ppoll");
  }
  return n > 0;
}

void SendQueue::push(std::uint16_t port, util::Bytes payload) {
  if (items_.size() >= kMaxQueue) {
    // Drop-newest: the retransmission lane will re-stage it; dropping the
    // head would reorder a link's frames.
    ++overflow_drops_;
    return;
  }
  items_.emplace_back(port, std::move(payload));
}

}  // namespace svs::net
