// Arena / SlabPool / FrameCache / RingBuf: the allocation-free building
// blocks under the simulation hot paths. The key property in every case is
// that a warmed-up instance stops touching the heap — alloc_count_test
// proves that end to end; here we pin down the unit-level contracts.
#include "src/common/arena.h"

#include <gtest/gtest.h>
#include <malloc.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/common/ring_buf.h"

#if defined(__SANITIZE_THREAD__)
#define DECLUST_TSAN_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DECLUST_TSAN_ACTIVE 1
#endif
#endif
#ifdef DECLUST_TSAN_ACTIVE
#if __has_include(<sanitizer/allocator_interface.h>)
#include <sanitizer/allocator_interface.h>
#else
// GCC 12 ships the sanitizer runtimes' allocator interface but not its
// header; the declaration is the one that header makes.
extern "C" size_t __sanitizer_get_current_allocated_bytes();
#endif
#endif

namespace declust {
namespace {

/// Bytes the process heap holds allocated. ThreadSanitizer replaces malloc
/// with its own allocator, whose blocks glibc's mallinfo2() never sees, so
/// a TSAN build asks that allocator instead.
size_t HeapBytes() {
#ifdef DECLUST_TSAN_ACTIVE
  return __sanitizer_get_current_allocated_bytes();
#else
  return mallinfo2().uordblks;
#endif
}

TEST(ArenaTest, AllocationsAreDisjointAndAligned) {
  Arena a;
  std::set<void*> seen;
  for (int i = 0; i < 1000; ++i) {
    void* p = a.Allocate(24, 8);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 8, 0u);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate pointer at i=" << i;
    std::memset(p, 0xAB, 24);  // must be writable
  }
  EXPECT_EQ(a.bytes_used(), 24u * 1000u);
}

TEST(ArenaTest, HonorsLargeAlignment) {
  Arena a;
  a.Allocate(1);  // misalign the cursor
  void* p = a.Allocate(64, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
}

TEST(ArenaTest, GrowsPastTheFirstChunk) {
  Arena a(/*first_chunk_bytes=*/256);
  for (int i = 0; i < 100; ++i) {
    void* p = a.Allocate(64);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0, 64);
  }
  EXPECT_GE(a.bytes_reserved(), a.bytes_used());
}

TEST(ArenaTest, OversizedRequestGetsItsOwnChunk) {
  Arena a(/*first_chunk_bytes=*/256);
  void* big = a.Allocate(1 << 20);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0, 1 << 20);
  // Small allocations still work afterwards.
  void* small = a.Allocate(16);
  ASSERT_NE(small, nullptr);
}

TEST(ArenaTest, ResetRetainsReservedFootprint) {
  Arena a(/*first_chunk_bytes=*/256);
  for (int i = 0; i < 200; ++i) a.Allocate(128);
  const size_t reserved = a.bytes_reserved();
  a.Reset();
  EXPECT_EQ(a.bytes_used(), 0u);
  // Refilling to the old population must not grow the footprint: the chunks
  // were recycled, not freed.
  for (int i = 0; i < 200; ++i) a.Allocate(128);
  EXPECT_EQ(a.bytes_reserved(), reserved);
}

TEST(ArenaTest, NewConstructsInPlace) {
  Arena a;
  struct Pair {
    int x;
    int y;
  };
  Pair* p = a.New<Pair>(Pair{3, 4});
  EXPECT_EQ(p->x, 3);
  EXPECT_EQ(p->y, 4);
}

TEST(SlabPoolTest, RecyclesFreedNodes) {
  Arena a;
  SlabPool<int64_t> pool(&a);
  int64_t* x = pool.New(int64_t{7});
  EXPECT_EQ(*x, 7);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.capacity(), 1u);
  pool.Delete(x);
  EXPECT_EQ(pool.live(), 0u);
  // The freed node comes back; capacity (arena carve count) stays put.
  int64_t* y = pool.New(int64_t{9});
  EXPECT_EQ(static_cast<void*>(y), static_cast<void*>(x));
  EXPECT_EQ(pool.capacity(), 1u);
  pool.Delete(y);
}

TEST(SlabPoolTest, SteadyStateCapacityEqualsPeakPopulation) {
  Arena a;
  SlabPool<double> pool(&a);
  std::vector<double*> live;
  for (int i = 0; i < 32; ++i) live.push_back(pool.New(double{1.0}));
  for (double* p : live) pool.Delete(p);
  live.clear();
  // Churning below the peak never carves new nodes.
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 32; ++i) live.push_back(pool.New(double{2.0}));
    for (double* p : live) pool.Delete(p);
    live.clear();
  }
  EXPECT_EQ(pool.capacity(), 32u);
}

TEST(SlabPoolTest, RunsDestructors) {
  Arena a;
  struct Probe {
    int* counter;
    explicit Probe(int* c) : counter(c) {}
    ~Probe() { ++*counter; }
  };
  int destroyed = 0;
  SlabPool<Probe> pool(&a);
  Probe* p = pool.New(&destroyed);
  pool.Delete(p);
  EXPECT_EQ(destroyed, 1);
}

TEST(FrameCacheTest, RoundTripsBlocks) {
  // Without ASan the second allocation of the same size class reuses the
  // first block; under ASan the cache is a passthrough and pointers differ.
  // Either way the memory must be writable at the requested size.
  void* a = FrameCache::Allocate(200);
  std::memset(a, 0xCD, 200);
  FrameCache::Deallocate(a, 200);
  void* b = FrameCache::Allocate(200);
  std::memset(b, 0xCD, 200);
#ifndef DECLUST_ASAN_ACTIVE
  EXPECT_EQ(b, a);
#endif
  FrameCache::Deallocate(b, 200);
}

TEST(FrameCacheTest, DistinctSizeClassesDoNotAlias) {
  void* small = FrameCache::Allocate(64);
  FrameCache::Deallocate(small, 64);
  void* large = FrameCache::Allocate(1024);
  std::memset(large, 0, 1024);  // must really be >= 1024 bytes
  FrameCache::Deallocate(large, 1024);
}

TEST(FrameCacheTest, OversizedBlocksPassThrough) {
  void* p = FrameCache::Allocate(1 << 16);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0, 1 << 16);
  FrameCache::Deallocate(p, 1 << 16);
}

TEST(FrameCacheTest, AdjacentSixteenByteClassesDoNotAlias) {
  // Live blocks of neighbouring classes (and of the same class) never
  // overlap: each keeps its own fill.
  std::vector<std::pair<unsigned char*, size_t>> blocks;
  for (size_t n = 1; n <= 1024; n += 5) {
    auto* p = static_cast<unsigned char*>(FrameCache::Allocate(n));
    std::memset(p, static_cast<int>(blocks.size() & 0xFF), n);
    blocks.emplace_back(p, n);
  }
  for (size_t i = 0; i < blocks.size(); ++i) {
    const auto [p, n] = blocks[i];
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(p[j], static_cast<unsigned char>(i & 0xFF))
          << "block " << i << " of " << n << " bytes, byte " << j;
    }
  }
  for (const auto& [p, n] : blocks) FrameCache::Deallocate(p, n);
#ifndef DECLUST_ASAN_ACTIVE
  // A freed 336-byte block serves its class (321..336), not the next one.
  void* a = FrameCache::Allocate(336);
  FrameCache::Deallocate(a, 336);
  void* b = FrameCache::Allocate(337);
  EXPECT_NE(b, a);
  FrameCache::Deallocate(b, 337);
#endif
}

TEST(FrameCacheTest, BlocksAreMaxAligned) {
  std::vector<std::pair<void*, size_t>> blocks;
  for (size_t n : {1u, 8u, 16u, 17u, 24u, 100u, 336u, 1000u, 4095u, 4096u}) {
    for (int k = 0; k < 3; ++k) {
      void* p = FrameCache::Allocate(n);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % alignof(std::max_align_t),
                0u)
          << n << " bytes";
      blocks.emplace_back(p, n);
    }
  }
  for (const auto& [p, n] : blocks) FrameCache::Deallocate(p, n);
}

TEST(FrameCacheTest, FreedBlockIsReusedWithinItsClass) {
  void* a = FrameCache::Allocate(321);
  std::memset(a, 0xAB, 321);
  FrameCache::Deallocate(a, 321);
  // 336 bytes is the same class as 321 (321..336).
  void* b = FrameCache::Allocate(336);
  std::memset(b, 0xAB, 336);
#ifndef DECLUST_ASAN_ACTIVE
  EXPECT_EQ(b, a);
#endif
  FrameCache::Deallocate(b, 336);
}

TEST(FrameCacheTest, RequestAboveFourKiBGoesToTheHeap) {
#ifdef DECLUST_ASAN_ACTIVE
  GTEST_SKIP() << "FrameCache passes through the heap under ASan by design";
#else
  // Warm the 4 KiB class, then watch the heap's allocated-bytes count: a
  // cached size reuses its block, one byte more is a heap block of its own.
  FrameCache::Deallocate(FrameCache::Allocate(4096), 4096);
  const size_t before = HeapBytes();
  void* cached = FrameCache::Allocate(4096);
  EXPECT_EQ(HeapBytes(), before);
  FrameCache::Deallocate(cached, 4096);
  void* big = FrameCache::Allocate(4097);
  std::memset(big, 0, 4097);
  EXPECT_GE(HeapBytes(), before + 4097);
  FrameCache::Deallocate(big, 4097);
  EXPECT_EQ(HeapBytes(), before);
#endif
}

TEST(RingBufTest, FifoOrderAcrossGrowth) {
  RingBuf<int> q;
  for (int i = 0; i < 1000; ++i) q.push_back(i);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(RingBufTest, WrapsWithoutReallocatingAtSteadyState) {
  RingBuf<int> q;
  for (int i = 0; i < 8; ++i) q.push_back(i);
  const size_t cap = q.capacity();
  // Slide the window far past the buffer size at constant population.
  for (int i = 8; i < 10'000; ++i) {
    EXPECT_EQ(q.front(), i - 8);
    q.pop_front();
    q.push_back(i);
  }
  EXPECT_EQ(q.capacity(), cap);
  EXPECT_EQ(q.size(), 8u);
}

TEST(RingBufTest, IndexedAccessIsInQueueOrder) {
  RingBuf<int> q;
  for (int i = 0; i < 20; ++i) q.push_back(i);
  for (int i = 0; i < 5; ++i) q.pop_front();
  for (size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q[i], static_cast<int>(i) + 5);
  }
}

TEST(RingBufTest, DestroysNonTrivialElements) {
  RingBuf<std::string> q;
  for (int i = 0; i < 100; ++i) {
    q.push_back(std::string(100, static_cast<char>('a' + i % 26)));
  }
  while (!q.empty()) q.pop_front();
  q.push_back("tail");
  EXPECT_EQ(q.front(), "tail");
}

}  // namespace
}  // namespace declust
