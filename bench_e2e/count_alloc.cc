// Counting replacements of the global operator new/delete (the same shape as
// tests/sim/alloc_count_test.cc), plus live and peak usable bytes. Linked
// only into declust_bench_traced.
#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench_e2e/heap_count.h"

namespace {

std::atomic<int64_t> g_allocs{0};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void* Track(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto size = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* CountedAlloc(size_t n) { return Track(std::malloc(n == 0 ? 1 : n)); }

void* CountedAllocAligned(size_t n, size_t align) {
  const size_t rounded = (n + align - 1) & ~(align - 1);
  return Track(std::aligned_alloc(align, rounded == 0 ? align : rounded));
}

// glibc free() handles both malloc and aligned_alloc pointers.
void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void* operator new(size_t n, std::align_val_t align) {
  return CountedAllocAligned(n, static_cast<size_t>(align));
}
void* operator new[](size_t n, std::align_val_t align) {
  return CountedAllocAligned(n, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  CountedFree(p);
}

namespace declust::bench {

HeapCounts ReadHeap() {
  return {g_allocs.load(std::memory_order_relaxed),
          g_live.load(std::memory_order_relaxed),
          g_peak.load(std::memory_order_relaxed)};
}

void ResetHeapPeak() {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace declust::bench
