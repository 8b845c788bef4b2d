#include "util/pool.hpp"

#include <array>
#include <mutex>
#include <vector>

#include "util/contracts.hpp"

namespace svs::util {
namespace {

constexpr std::size_t kGranularity = 16;
constexpr std::size_t kClasses = Pool::kMaxPooledBytes / kGranularity;
constexpr std::uint32_t kLargeClass = ~std::uint32_t{0};

[[nodiscard]] constexpr std::size_t class_of(std::size_t bytes) {
  return (bytes + kGranularity - 1) / kGranularity - 1;
}

[[nodiscard]] constexpr std::size_t class_bytes(std::size_t cls) {
  return (cls + 1) * kGranularity;
}

}  // namespace

/// Precedes every block handed out.  16 bytes, so user data keeps
/// max_align_t alignment.  While a block sits on a free list the owner word
/// is reused as the list link (the owner is re-stamped on reuse: local
/// lists belong to exactly one pool, and remote lists drain into their
/// owner's local lists).
struct Pool::Header {
  union {
    Impl* owner;   // while allocated (nullptr: not pooled, operator new)
    Header* next;  // while free-listed
  };
  std::uint32_t cls;
  std::uint32_t reserved;
};

struct Pool::Impl {
  // Touched by the owning thread only.
  std::array<Header*, kClasses> local{};
  // Blocks freed by other threads; drained in bulk when a local list runs
  // dry.  The mutex is uncontended unless objects actually migrate.
  std::mutex remote_mutex;
  std::array<Header*, kClasses> remote{};
  // Single-writer (the owning thread's allocate()), relaxed-atomic so
  // aggregate() reads race-free.
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> bytes_recycled{0};
};

// ---------------------------------------------------------------------------
// registry: owns every Pool; leases them to threads
// ---------------------------------------------------------------------------

class PoolRegistry {
 public:
  /// Leaked singleton: pools (and the blocks they own) must outlive every
  /// thread-local handle and every late-destroyed object, so the registry
  /// is never torn down.
  static PoolRegistry& instance() {
    static auto* registry = new PoolRegistry;
    return *registry;
  }

  Pool* lease() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!parked_.empty()) {
      Pool* pool = parked_.back();
      parked_.pop_back();
      return pool;
    }
    all_.push_back(new Pool);  // immortal, like the registry itself
    return all_.back();
  }

  void release(Pool* pool) {
    const std::lock_guard<std::mutex> lock(mutex_);
    parked_.push_back(pool);
  }

  [[nodiscard]] PoolStats aggregate() {
    const std::lock_guard<std::mutex> lock(mutex_);
    PoolStats total;
    for (const Pool* pool : all_) total += pool->stats();
    return total;
  }

 private:
  std::mutex mutex_;
  std::vector<Pool*> all_;     // owned; never freed (blocks may outlive all)
  std::vector<Pool*> parked_;  // leased out and returned (thread exited)
};

namespace {

/// Thread-local lease: acquired on first use, returned (warm) on thread
/// exit so the next wire/shard thread starts with populated free lists.
struct LocalLease {
  Pool* pool = nullptr;
  ~LocalLease() {
    if (pool != nullptr) PoolRegistry::instance().release(pool);
  }
};

}  // namespace

Pool& Pool::local() {
  thread_local LocalLease lease;
  if (lease.pool == nullptr) lease.pool = PoolRegistry::instance().lease();
  return *lease.pool;
}

PoolStats Pool::aggregate() { return PoolRegistry::instance().aggregate(); }

// ---------------------------------------------------------------------------
// pool
// ---------------------------------------------------------------------------

Pool::Pool() : impl_(new Impl) {
  static_assert(sizeof(Header) == 16);
  static_assert(alignof(std::max_align_t) <= 16);
}

Pool::~Pool() {
  // Unreached in practice (the registry is leaked), but correct: return
  // every free-listed block to the system allocator.
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    for (Header* h = impl_->local[cls]; h != nullptr;) {
      Header* next = h->next;
      ::operator delete(h);
      h = next;
    }
    for (Header* h = impl_->remote[cls]; h != nullptr;) {
      Header* next = h->next;
      ::operator delete(h);
      h = next;
    }
  }
  delete impl_;
}

void Pool::bump(std::atomic<std::uint64_t>& counter, std::uint64_t delta) {
  // Single-writer counter: plain load+store (no RMW) keeps the hot path at
  // two ordinary moves while aggregate() reads stay race-free.
  counter.store(counter.load(std::memory_order_relaxed) + delta,
                std::memory_order_relaxed);
}

Pool::Header* Pool::drain_remote(std::size_t cls) {
  const std::lock_guard<std::mutex> lock(impl_->remote_mutex);
  Header* head = impl_->remote[cls];
  impl_->remote[cls] = nullptr;
  return head;
}

void* Pool::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooledBytes) {
    bump(impl_->misses, 1);
    auto* h = static_cast<Header*>(::operator new(sizeof(Header) + bytes));
    h->owner = nullptr;
    h->cls = kLargeClass;
    return h + 1;
  }
  const std::size_t cls = class_of(bytes);
  if (impl_->local[cls] == nullptr) impl_->local[cls] = drain_remote(cls);
  Header* h = impl_->local[cls];
  if (h != nullptr) {
    impl_->local[cls] = h->next;
    h->owner = impl_;
    SVS_ASSERT(h->cls == cls, "pooled block migrated size classes");
    bump(impl_->hits, 1);
    bump(impl_->bytes_recycled, class_bytes(cls));
    return h + 1;
  }
  bump(impl_->misses, 1);
  h = static_cast<Header*>(::operator new(sizeof(Header) + class_bytes(cls)));
  h->owner = impl_;
  h->cls = static_cast<std::uint32_t>(cls);
  h->reserved = 0;
  return h + 1;
}

void Pool::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  auto* h = static_cast<Header*>(p) - 1;
  if (h->cls == kLargeClass) {
    ::operator delete(h);
    return;
  }
  Impl* owner = h->owner;
  const std::size_t cls = h->cls;
  if (owner == impl_) {
    h->next = impl_->local[cls];
    impl_->local[cls] = h;
    return;
  }
  // Freed by a thread that does not own the block's pool (an object shared
  // across threads, released by the last holder): hand it back through the
  // owner's remote list.
  const std::lock_guard<std::mutex> lock(owner->remote_mutex);
  h->next = owner->remote[cls];
  owner->remote[cls] = h;
}

PoolStats Pool::stats() const {
  PoolStats s;
  s.hits = impl_->hits.load(std::memory_order_relaxed);
  s.misses = impl_->misses.load(std::memory_order_relaxed);
  s.bytes_recycled = impl_->bytes_recycled.load(std::memory_order_relaxed);
  return s;
}

}  // namespace svs::util
