// Pooled hot-path allocator (DESIGN.md §8).
//
// The protocol's steady state allocates the same handful of shapes over and
// over: a DataMessage (+ shared_ptr control block) per multicast, a decoded
// message per wire crossing, list/set nodes per delivery-queue insert.  The
// general-purpose allocator pays locking, size-class search and cache misses
// for objects whose lifetime is a few microseconds; this pool recycles them
// from per-thread free lists instead.
//
// Shape:
//
//   * one Pool per thread (thread_local handle; the Pool object itself lives
//     in a process-wide registry and is leased to threads, so blocks owned
//     by a pool stay valid after its thread exits and short-lived threads
//     (ShardedRunner workers) reuse warmed pools instead of starting cold);
//   * blocks are bucketed into 16-byte size classes up to kMaxPooledBytes;
//     larger requests fall through to operator new and are counted as
//     misses (never pooled: the tail is rare and would pin memory);
//   * every block carries a header naming its owning pool and class.  Frees
//     from the owning thread push onto that class's local free list with no
//     synchronization; frees from any other thread (an object shared
//     across threads and released by the last holder) push onto the
//     owner's mutex-protected remote list, which the owner drains in bulk
//     the next time the local list runs dry.
//
// Counters (hits / misses / bytes_recycled) are single-writer: only the
// owning thread's allocate() path touches them, with relaxed atomics so
// metrics::Stats::snapshot() can aggregate across threads race-free.  A hit
// means a free-listed block was reused; bytes_recycled accumulates the
// byte size of those reuses.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

namespace svs::util {

/// Allocation counters of one pool (or an aggregate over all pools).
struct PoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bytes_recycled = 0;

  PoolStats& operator+=(const PoolStats& o) {
    hits += o.hits;
    misses += o.misses;
    bytes_recycled += o.bytes_recycled;
    return *this;
  }
};

/// Per-thread free-list pool.  Obtain the calling thread's pool with
/// Pool::local(); do not construct directly (the registry owns them).
class Pool {
 public:
  /// Largest request served from the free lists; bigger ones go straight to
  /// operator new.  Covers every hot shape (messages + control block,
  /// list/map/set nodes, small vectors) with room to spare.
  static constexpr std::size_t kMaxPooledBytes = 1024;

  /// The calling thread's pool (leased from the registry on first use,
  /// returned — with its warmed free lists — when the thread exits).
  static Pool& local();

  /// Sum of the counters of every pool ever leased (live or parked).
  [[nodiscard]] static PoolStats aggregate();

  void* allocate(std::size_t bytes);
  void deallocate(void* p) noexcept;

  /// This pool's own counters (tests; cross-thread aggregation goes
  /// through aggregate()).
  [[nodiscard]] PoolStats stats() const;

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

 private:
  friend class PoolRegistry;
  Pool();
  ~Pool();

  struct Header;
  struct ClassList;

  /// Steals the whole remote-free list of `cls`; returns its head.
  Header* drain_remote(std::size_t cls);
  void bump(std::atomic<std::uint64_t>& counter, std::uint64_t delta);

  struct Impl;
  Impl* impl_;
};

/// std::allocator-compatible adapter over the calling thread's Pool.
/// Stateless: allocation always goes through Pool::local(), deallocation is
/// routed to the owning pool by the block header, so containers and shared
/// pointers may migrate between threads freely.
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
/// pooled allocation, recycled when the last reference drops (on whatever
/// thread that happens).
template <typename T, typename... Args>
[[nodiscard]] std::shared_ptr<T> pool_shared(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

}  // namespace svs::util
