// Pooled hot-path allocator (DESIGN.md §8).
//
// The protocol's steady state allocates the same handful of shapes over and
// over: a DataMessage (+ shared_ptr control block) per multicast, a decoded
// message per wire crossing, list/set nodes per delivery-queue insert.  The
// general-purpose allocator pays locking, size-class search and cache misses
// for objects whose lifetime is a few microseconds; this pool recycles them
// from a per-thread free list instead.
//
// Shape:
//
//   * one Pool per thread: a constinit thread_local holding one free-list
//     head per 16-byte size class up to kMaxPooledBytes, plus three plain
//     counters.  The protocol runs on one thread per process, so nothing
//     is shared and nothing is locked;
//   * larger requests fall through to operator new and are counted as
//     misses (never pooled: the tail is rare and would pin memory);
//   * every block carries a 16-byte header holding its size class and, while
//     free, its list link.  A free pushes the block onto the *calling*
//     thread's list of that class.
//
// Counters: a hit means a free-listed block was reused; bytes_recycled
// accumulates the byte size of those reuses; every other allocation is a
// miss.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace svs::util {

/// Allocation counters of one thread's pool.
struct PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_recycled = 0;
};

/// Per-thread free-list pool.  Obtain the calling thread's pool with
/// Pool::local(); it cannot be constructed directly.
class Pool {
 public:
  /// Largest request served from the free lists; bigger ones go straight to
  /// operator new.  Covers every hot shape (messages + control block,
  /// list/map/set nodes, small vectors) with room to spare.
  static constexpr std::size_t kMaxPooledBytes = 1024;

  /// The calling thread's pool.
  static Pool& local();

  void* allocate(std::size_t bytes);
  void deallocate(void* p) noexcept;

  [[nodiscard]] PoolStats stats() const { return stats_; }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

 private:
  static constexpr std::size_t kGranularity = 16;
  static constexpr std::size_t kClasses = kMaxPooledBytes / kGranularity;

  constexpr Pool() = default;

  struct Header;

  std::array<Header*, kClasses> free_{};
  PoolStats stats_;
};

/// std::allocator-compatible adapter over the calling thread's Pool.
/// Stateless: allocation and deallocation both go through Pool::local(),
/// and a block is freed onto the list of the thread that frees it.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() noexcept = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(*-explicit*)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(Pool::local().allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    Pool::local().deallocate(p);
  }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

/// make_shared with pooled storage: object and control block live in one
/// pooled allocation, recycled when the last reference drops.
template <typename T, typename... Args>
[[nodiscard]] std::shared_ptr<T> pool_shared(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace svs::util
