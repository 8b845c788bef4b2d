// Thread-local pool allocator (DESIGN.md §8).
//
// The contract the hot path relies on: a freed block of the same size class
// is reused by the next allocation on that thread (a hit), and oversized
// requests fall through to the system allocator untouched by the counters'
// recycle accounting.
#include <gtest/gtest.h>

#include <cstring>
#include <list>

#include "metrics/stats.hpp"
#include "util/pool.hpp"

namespace svs::util {
namespace {

TEST(Pool, ReusesFreedBlocksOfTheSameClass) {
  Pool& pool = Pool::local();
  const PoolStats before = pool.stats();

  void* first = pool.allocate(48);
  ASSERT_NE(first, nullptr);
  std::memset(first, 0xAB, 48);
  pool.deallocate(first);

  void* second = pool.allocate(48);
  EXPECT_EQ(second, first) << "the free list must hand back the freed block";
  pool.deallocate(second);

  const PoolStats after = pool.stats();
  EXPECT_EQ(after.misses - before.misses, 1u) << "first allocation is a miss";
  EXPECT_GE(after.hits - before.hits, 1u) << "second allocation is a hit";
  EXPECT_GE(after.bytes_recycled - before.bytes_recycled, 48u);
}

TEST(Pool, DistinctSizeClassesDoNotAlias) {
  Pool& pool = Pool::local();
  void* small = pool.allocate(16);
  pool.deallocate(small);
  // 64 bytes lives in a different class: the freed 16-byte block must not
  // be handed out for it.
  void* big = pool.allocate(64);
  EXPECT_NE(big, small);
  pool.deallocate(big);
}

TEST(Pool, LargeAllocationsFallThrough) {
  Pool& pool = Pool::local();
  const PoolStats before = pool.stats();
  void* p = pool.allocate(Pool::kMaxPooledBytes + 1);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5C, Pool::kMaxPooledBytes + 1);
  pool.deallocate(p);
  void* q = pool.allocate(Pool::kMaxPooledBytes + 1);
  ASSERT_NE(q, nullptr);
  pool.deallocate(q);
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.hits, before.hits) << "large blocks are never pool hits";
  EXPECT_EQ(after.bytes_recycled, before.bytes_recycled);
}

TEST(Pool, AllocatorWorksInContainersAndPoolShared) {
  std::list<int, PoolAllocator<int>> numbers;
  for (int i = 0; i < 100; ++i) numbers.push_back(i);
  int expect = 0;
  for (const int v : numbers) EXPECT_EQ(v, expect++);
  numbers.clear();
  // Node churn after the warm-up should be all hits.
  const PoolStats before = Pool::local().stats();
  for (int i = 0; i < 100; ++i) numbers.push_back(i);
  const PoolStats after = Pool::local().stats();
  EXPECT_GE(after.hits - before.hits, 100u);

  const auto shared = pool_shared<std::uint64_t>(42u);
  EXPECT_EQ(*shared, 42u);
}

TEST(Pool, MetricsSnapshotDeltasTrackPoolWork) {
  const metrics::Stats before = metrics::Stats::snapshot();
  Pool& pool = Pool::local();
  const PoolStats pool_before = pool.stats();
  for (int i = 0; i < 5; ++i) pool.deallocate(pool.allocate(128));
  const PoolStats pool_after = pool.stats();
  const metrics::Stats delta = metrics::Stats::snapshot() - before;
  // The snapshot is the calling thread's pool, and nothing else allocated
  // in between: its delta is exactly the five allocations above.
  EXPECT_EQ(delta.pool_hits, pool_after.hits - pool_before.hits);
  EXPECT_EQ(delta.pool_misses, pool_after.misses - pool_before.misses);
  EXPECT_EQ(delta.bytes_recycled,
            pool_after.bytes_recycled - pool_before.bytes_recycled);
  EXPECT_EQ(delta.pool_hits + delta.pool_misses, 5u);
  EXPECT_GT(delta.bytes_recycled, 0u);
}

}  // namespace
}  // namespace svs::util
