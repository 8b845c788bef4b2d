// The benchmark's own plumbing: the shared monotonic clock, CPU pinning, a
// byte archive for shipping member reports between processes, and framed
// pipe channels.
//
// Every process of a UDP run is a fork of the same binary, so trivially
// copyable structs (the library's counter structs) travel as raw bytes;
// containers are length-prefixed.  A type with a `template <class A> void
// io(A&)` member lists its fields once for both directions.
#pragma once

#include <poll.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace svs::bench_service {

/// CLOCK_MONOTONIC in nanoseconds: one clock shared by every process on the
/// host, so stamps taken in different members subtract meaningfully.
inline std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Restricts the calling process to the `index`-th (modulo) of the CPUs it
/// could use when first called.  Each member of a UDP run gets a core of
/// its own: left to the scheduler, members migrate and share cores, and
/// their wake-up latency varies from run to run far more than any change
/// under test.  The single-threaded closed loop instead moves to the next
/// core for every set-up, load window and view change: on a shared host
/// the cores differ in speed by up to half, differently from minute to
/// minute, and a run that sampled only one of them would inherit its
/// speed.  Best effort: on failure the affinity stays as it was.
inline void pin_to_cpu(std::size_t index) {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) cpus.push_back(c);
      }
    }
    return cpus;
  }();
  if (allowed.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(allowed[index % allowed.size()], &one);
  (void)::sched_setaffinity(0, sizeof(one), &one);
}

struct Writer;

template <class T>
concept Archivable = requires(T& t, Writer& w) { t.io(w); };

template <class T>
concept Raw = std::is_trivially_copyable_v<T> && !Archivable<T>;

struct Writer {
  std::string bytes;

  template <class... Ts>
    requires(sizeof...(Ts) > 1)
  void operator()(Ts&... values) {
    ((*this)(values), ...);
  }
  template <Raw T>
  void operator()(const T& value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(T));
  }
  void operator()(std::string& s) {
    length(s.size());
    bytes.append(s);
  }
  template <class T>
  void operator()(std::vector<T>& v) {
    length(v.size());
    for (auto& x : v) (*this)(x);
  }
  template <class K, class V>
  void operator()(std::map<K, V>& m) {
    length(m.size());
    for (auto& [k, v] : m) {
      (*this)(k);
      (*this)(v);
    }
  }
  template <Archivable T>
  void operator()(T& value) {
    value.io(*this);
  }

 private:
  void length(std::size_t n) { (*this)(static_cast<std::uint64_t>(n)); }
};

struct Reader {
  const char* at;
  const char* end;

  explicit Reader(const std::string& s)
      : at(s.data()), end(s.data() + s.size()) {}

  template <class... Ts>
    requires(sizeof...(Ts) > 1)
  void operator()(Ts&... values) {
    ((*this)(values), ...);
  }
  template <Raw T>
  void operator()(T& value) {
    take(&value, sizeof(T));
  }
  void operator()(std::string& s) {
    s.resize(length(1));
    take(s.data(), s.size());
  }
  template <class T>
  void operator()(std::vector<T>& v) {
    v.resize(length(Raw<T> ? sizeof(T) : 1));
    for (auto& x : v) (*this)(x);
  }
  template <class K, class V>
  void operator()(std::map<K, V>& m) {
    m.clear();
    const std::size_t n = length(sizeof(K));
    for (std::size_t i = 0; i < n; ++i) {
      K key{};
      V value{};
      (*this)(key);
      (*this)(value);
      m.emplace(std::move(key), std::move(value));
    }
  }
  template <Archivable T>
  void operator()(T& value) {
    value.io(*this);
  }

 private:
  void take(void* out, std::size_t n) {
    if (static_cast<std::size_t>(end - at) < n) {
      throw std::runtime_error("truncated report");
    }
    std::memcpy(out, at, n);
    at += n;
  }
  /// A length prefix, checked against the bytes left (each element needs
  /// at least `min_bytes`) before anything is allocated for it.
  std::size_t length(std::size_t min_bytes) {
    std::uint64_t n = 0;
    take(&n, sizeof(n));
    if (n > static_cast<std::uint64_t>(end - at) / min_bytes) {
      throw std::runtime_error("corrupt report length");
    }
    return static_cast<std::size_t>(n);
  }
};

template <class T>
std::string pack(T& value) {
  Writer w;
  w(value);
  return std::move(w.bytes);
}

template <class T>
void unpack(const std::string& bytes, T& value) {
  Reader r(bytes);
  r(value);
  if (r.at != r.end) throw std::runtime_error("trailing bytes in report");
}

/// A pair of pipe ends between the supervisor and one member; frames are
/// [u32 length][u8 type][body].  Owns both descriptors.
class Channel {
 public:
  struct Frame {
    std::uint8_t type = 0;
    std::string body;
  };

  Channel(int in_fd, int out_fd) : in_(in_fd), out_(out_fd) {}
  ~Channel() {
    ::close(in_);
    ::close(out_);
  }
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(std::uint8_t type, const std::string& body = {}) {
    const auto len = static_cast<std::uint32_t>(body.size());
    std::string frame(reinterpret_cast<const char*>(&len), sizeof(len));
    frame.push_back(static_cast<char>(type));
    frame += body;
    std::size_t done = 0;
    while (done < frame.size()) {
      const ssize_t n = ::write(out_, frame.data() + done, frame.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("pipe write failed");
      done += static_cast<std::size_t>(n);
    }
  }

  /// Reads what has arrived (waiting up to `wait_ms` for the first byte)
  /// and returns the next complete frame, if any.
  std::optional<Frame> next(int wait_ms = 0) {
    pollfd pfd{in_, POLLIN, 0};
    while (frames_.empty() && !eof_ && ::poll(&pfd, 1, wait_ms) > 0) {
      char chunk[65536];
      const ssize_t n = ::read(in_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        eof_ = true;
        break;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
      split();
    }
    if (frames_.empty()) return std::nullopt;
    Frame f = std::move(frames_.front());
    frames_.pop_front();
    return f;
  }

  /// Blocks until a frame arrives or `deadline` (now_ns clock) passes.
  Frame recv(std::int64_t deadline) {
    for (;;) {
      const std::int64_t left_ms = (deadline - now_ns()) / 1'000'000;
      if (auto f = next(static_cast<int>(std::clamp<std::int64_t>(left_ms, 0, 100)))) {
        return std::move(*f);
      }
      if (eof_) throw std::runtime_error("member closed its pipe");
      if (left_ms <= 0) throw std::runtime_error("timed out waiting on a member");
    }
  }

 private:
  void split() {
    while (buffer_.size() >= 5) {
      std::uint32_t len = 0;
      std::memcpy(&len, buffer_.data(), sizeof(len));
      if (buffer_.size() < 5 + static_cast<std::size_t>(len)) return;
      frames_.push_back(Frame{static_cast<std::uint8_t>(buffer_[4]),
                              buffer_.substr(5, len)});
      buffer_.erase(0, 5 + static_cast<std::size_t>(len));
    }
  }

  int in_;
  int out_;
  bool eof_ = false;
  std::string buffer_;
  std::deque<Frame> frames_;
};

}  // namespace svs::bench_service
