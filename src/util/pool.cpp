#include "util/pool.hpp"

#include <new>
#include <type_traits>

#include "util/contracts.hpp"

namespace svs::util {
namespace {

constexpr std::size_t kLargeClass = ~std::size_t{0};

}  // namespace

/// Precedes every block handed out.
struct Pool::Header {
  Header* next;     // while free-listed
  std::size_t cls;  // size class; kLargeClass: not pooled (operator new)
};

Pool& Pool::local() {
  static_assert(sizeof(Header) == 16 && alignof(std::max_align_t) <= 16,
                "the header must keep user data max_align_t-aligned");
  // No destructor runs at thread exit, so objects destroyed after it
  // (static destructors on the main thread) still free into this pool.
  static_assert(std::is_trivially_destructible_v<Pool>);
  constinit thread_local Pool pool;
  return pool;
}

void* Pool::allocate(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  if (bytes > kMaxPooledBytes) {
    ++stats_.misses;
    auto* h = static_cast<Header*>(::operator new(sizeof(Header) + bytes));
    h->cls = kLargeClass;
    return h + 1;
  }
  const std::size_t cls = (bytes - 1) / kGranularity;
  const std::size_t cls_bytes = (cls + 1) * kGranularity;
  Header* h = free_[cls];
  if (h != nullptr) {
    free_[cls] = h->next;
    SVS_ASSERT(h->cls == cls, "pooled block migrated size classes");
    ++stats_.hits;
    stats_.bytes_recycled += cls_bytes;
    return h + 1;
  }
  ++stats_.misses;
  h = static_cast<Header*>(::operator new(sizeof(Header) + cls_bytes));
  h->cls = cls;
  return h + 1;
}

void Pool::deallocate(void* p) noexcept {
  if (p == nullptr) return;
  auto* h = static_cast<Header*>(p) - 1;
  if (h->cls == kLargeClass) {
    ::operator delete(h);
    return;
  }
  h->next = free_[h->cls];
  free_[h->cls] = h;
}

}  // namespace svs::util
