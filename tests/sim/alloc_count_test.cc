// Proof that the steady-state event loop is allocation-free: global
// operator new/delete are replaced with counting versions, a quick
// figure-8-style engine run is warmed up past its pool-population phase,
// and the measurement segment must then dispatch tens of thousands of
// events with ZERO heap allocations. The same counters track live heap
// bytes, which bound what one in-flight data site costs and what a serial
// sweep peaks at.
//
// The override counts every allocation in the process, so this test must
// not run in the same binary as unrelated tests that allocate from other
// threads — it gets its own executable (see tests/CMakeLists.txt). Under
// ASan the FrameCache intentionally passes every coroutine frame through
// the heap (so ASan sees frame lifetimes), which makes the zero-allocation
// property unprovable there; the steady-state assertions are skipped.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "src/common/arena.h"
#include "src/engine/system.h"
#include "src/exp/experiment.h"
#include "src/exp/runner.h"
#include "src/sim/simulation.h"
#include "src/workload/mixes.h"
#include "src/workload/open.h"
#include "src/workload/wisconsin.h"

namespace {
std::atomic<int64_t> g_allocations{0};
std::atomic<int64_t> g_frees{0};
// Live heap bytes (as malloc_usable_size reports them) and their high-water
// mark, which a test may reset.
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_live_bytes{0};

void* Counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<int64_t>(malloc_usable_size(p));
  const int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* CountedAlloc(size_t n) { return Counted(std::malloc(n == 0 ? 1 : n)); }

void* CountedAllocAligned(size_t n, size_t align) {
  const size_t rounded = (n + align - 1) & ~(align - 1);
  return Counted(std::aligned_alloc(align, rounded == 0 ? align : rounded));
}

// glibc free() handles both malloc and aligned_alloc pointers.
void CountedFree(void* p) noexcept {
  if (p != nullptr) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
    g_live_bytes.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
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

namespace declust {
namespace {

TEST(AllocCountTest, CountingOverrideIsLive) {
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  auto* p = new int(7);
  EXPECT_GT(g_allocations.load(std::memory_order_relaxed), before);
  delete p;
}

TEST(AllocCountTest, WarmArenaAllocatesNothing) {
  Arena arena(/*first_chunk_bytes=*/4096);
  for (int i = 0; i < 100; ++i) arena.Allocate(32);
  arena.Reset();
  const int64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100; ++i) arena.Allocate(32);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed), before);
}

// Warms a small closed-loop engine run past its pool-population phase, then
// walks fixed windows of simulated time until one is completely heap-silent.
// Shared by the default mix under each strategy and the scan-heavy variant
// below: heap silence must hold for every access and routing path the
// workload can reach.
void ExpectSteadyStateHeapSilent(const char* strategy,
                                 const workload::Workload& wl) {
#ifdef DECLUST_ASAN_ACTIVE
  GTEST_SKIP() << "FrameCache passes through the heap under ASan by design";
#endif
  workload::WisconsinOptions wopts;
  wopts.cardinality = 10'000;
  const auto relation = workload::MakeWisconsin(wopts);
  auto part = exp::MakePartitioning(strategy, relation, wl,
                                    /*num_processors=*/8);
  ASSERT_TRUE(part.ok()) << part.status().message();

  sim::Simulation sim;
  engine::SystemConfig cfg;
  cfg.hw.num_processors = 8;
  cfg.multiprogramming_level = 8;
  cfg.seed = 17;
  engine::System system(&sim, cfg, &relation, part->get(), &wl);
  ASSERT_TRUE(system.Init().ok());
  system.Start();

  // Warm-up, then measure in fixed windows of simulated time. Every pool in
  // the loop (event slots, calendar tiers, coroutine frame cache,
  // wait-queue rings, plan/scratch pools) retains capacity at its
  // high-water mark, and the closed system (fixed MPL) bounds every mark —
  // so allocations must die out entirely: per-event work allocates nothing,
  // and pool growth stops once the marks saturate. Rare queue-depth records
  // can still trickle in for a while, so we walk windows until one is
  // completely heap-silent; a per-event allocation (the regression this
  // test exists to catch) would make EVERY window allocate thousands of
  // times and fail the loop immediately.
  sim.RunUntil(2'000.0);
  constexpr double kWindowMs = 10'000.0;
  constexpr int kMaxWindows = 30;
  int64_t window_allocs = -1;
  int64_t window_frees = -1;
  uint64_t window_events = 0;
  int windows_used = 0;
  for (int w = 0; w < kMaxWindows; ++w) {
    const int64_t a0 = g_allocations.load(std::memory_order_relaxed);
    const int64_t f0 = g_frees.load(std::memory_order_relaxed);
    const uint64_t e0 = sim.events_dispatched();
    sim.RunUntil(sim.now() + kWindowMs);
    window_allocs = g_allocations.load(std::memory_order_relaxed) - a0;
    window_frees = g_frees.load(std::memory_order_relaxed) - f0;
    window_events = sim.events_dispatched() - e0;
    windows_used = w + 1;
    if (window_allocs == 0 && window_frees == 0) break;
  }

  ASSERT_GT(window_events, 10'000u)
      << "config too small to be a meaningful probe";
  EXPECT_EQ(window_allocs, 0)
      << "no allocation-free window within " << kMaxWindows << " x "
      << kWindowMs << " simulated ms; last window performed " << window_allocs
      << " heap allocations over " << window_events << " events ("
      << (static_cast<double>(window_allocs) /
          static_cast<double>(window_events))
      << " per event)";
  EXPECT_EQ(window_frees, 0)
      << window_frees << " heap frees over " << window_events << " events";
  // Saturation must be quick; needing many windows means something in the
  // loop grows far beyond the closed system's natural high-water marks.
  EXPECT_LE(windows_used, 10) << "pools still growing after "
                              << windows_used * kWindowMs << " simulated ms";
  EXPECT_GT(system.metrics().completed_total(), 0);
}

TEST(AllocCountTest, SteadyStateEngineEventLoopIsHeapSilent) {
  // A quick figure-8-style configuration: range partitioning, mixed
  // resource classes, fault-free, probe/audit off — the default hot path.
  ExpectSteadyStateHeapSilent(
      "range", workload::MakeMix(workload::ResourceClass::kLow,
                                 workload::ResourceClass::kModerate));
}

TEST(AllocCountTest, BerdSteadyStateIsHeapSilent) {
  // BERD routes a secondary-attribute query through its auxiliary trees,
  // walking each one's leaves in place.
  ExpectSteadyStateHeapSilent(
      "BERD", workload::MakeMix(workload::ResourceClass::kLow,
                                workload::ResourceClass::kModerate));
}

TEST(AllocCountTest, MagicSteadyStateIsHeapSilent) {
  // MAGIC routes every query through the grid directory's cell walk.
  ExpectSteadyStateHeapSilent(
      "MAGIC", workload::MakeMix(workload::ResourceClass::kLow,
                                 workload::ResourceClass::kModerate));
}

TEST(AllocCountTest, ScanHeavySteadyStateIsHeapSilent) {
  // Same probe with the clustered class flipped to full fragment scans:
  // every site then reads its whole extent each query. Scan plans are
  // run-length (one entry per extent), so pooled plans must stay silent
  // without the old max-fragment-pages pre-reserve — this is the access
  // path an O(pages) plan regression would hit first.
  auto wl = workload::MakeMix(workload::ResourceClass::kLow,
                              workload::ResourceClass::kModerate);
  for (auto& cls : wl.classes) {
    if (cls.clustered_index) cls.sequential_scan = true;
  }
  wl.name += "+scan";
  ExpectSteadyStateHeapSilent("range", wl);
}

// Range declustering sends every attribute-A query to all 32 processors,
// so an open load past the knee parks thousands of data sites at the disks
// at once. A light first second warms every pool the load reaches (per-disk
// request slabs, calendar, frame cache); everything the overload then adds
// to the heap (coroutine frames, site plans' page lists, sessions) is
// charged to the peak number of sites queued at the disks. That count
// leaves out the sites in service or elsewhere, so the figure caps what one
// parked site holds. Returns the heap bytes per parked site, or a negative
// value after a failed setup assertion.
double ParkedDataSiteHeapBytesOnThisThread() {
  const auto wl = workload::MakeMix(workload::ResourceClass::kLow,
                                    workload::ResourceClass::kLow);
  workload::WisconsinOptions wopts;
  wopts.cardinality = 20'000;
  const auto relation = workload::MakeWisconsin(wopts);
  constexpr int kProcessors = 32;
  auto part = exp::MakePartitioning("range", relation, wl, kProcessors);
  EXPECT_TRUE(part.ok()) << part.status().message();
  auto open = workload::OpenPlan::Parse("rate:20;rate:600@t=1s;cap:256");
  EXPECT_TRUE(open.ok()) << open.status().message();
  if (!part.ok() || !open.ok()) return -1.0;

  sim::Simulation sim;
  engine::SystemConfig cfg;
  cfg.hw.num_processors = kProcessors;
  cfg.seed = 17;
  cfg.open = &*open;
  engine::System system(&sim, cfg, &relation, part->get(), &wl);
  const Status init = system.Init();
  EXPECT_TRUE(init.ok()) << init.ToString();
  if (!init.ok()) return -1.0;
  system.Start();
  sim.RunUntil(1'000.0);

  const int64_t baseline = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(baseline, std::memory_order_relaxed);
  int64_t peak_parked = 0;
  for (double t = 1'001.0; t <= 4'000.0; t += 1.0) {
    sim.RunUntil(t);
    int64_t parked = 0;
    for (int n = 0; n < kProcessors; ++n) {
      parked += static_cast<int64_t>(
          system.machine().node(n).disk().queue_length());
    }
    peak_parked = std::max(peak_parked, parked);
  }
  const int64_t peak_extra =
      g_peak_live_bytes.load(std::memory_order_relaxed) - baseline;

  EXPECT_GT(peak_parked, 2'000) << "the load is not past the knee";
  if (peak_parked <= 2'000) return -1.0;
  return static_cast<double>(peak_extra) / static_cast<double>(peak_parked);
}

// Runs ParkedDataSiteHeapBytesOnThisThread on a thread of its own, so
// frames that earlier tests left in this thread's FrameCache cannot hide
// the run's frames, and records the figure as the test's
// heap_bytes_per_parked_site property (--gtest_output=xml).
double ParkedDataSiteHeapBytes() {
  double per_site = -1.0;
  std::thread([&per_site] {
    per_site = ParkedDataSiteHeapBytesOnThisThread();
  }).join();
  if (per_site >= 0.0) {
    ::testing::Test::RecordProperty("heap_bytes_per_parked_site",
                                    std::to_string(per_site));
  }
  return per_site;
}

TEST(AllocCountTest, ParkedDataSiteCostsAtMostTwoKiB) {
  const double per_site = ParkedDataSiteHeapBytes();
  EXPECT_GE(per_site, 0.0);
  EXPECT_LE(per_site, 2'048.0) << "heap bytes per parked data site";
}

TEST(AllocCountTest, ParkedDataSiteCostsAtMost520Bytes) {
  // A parked site is one coroutine frame, its select folded in as a state
  // object, in an exact 16-byte frame class carved from a chunk (no malloc
  // header), plus a 48-byte disk request. That measures 475 bytes, against
  // 881 with a RunSite and a RunSelect frame in 64-byte classes and 72-byte
  // requests; a second frame per site or the old rounding breaks this.
  const double per_site = ParkedDataSiteHeapBytes();
  EXPECT_GE(per_site, 0.0);
  EXPECT_LE(per_site, 520.0) << "heap bytes per parked data site";
}

TEST(AllocCountTest, SerialSweepPeakHeapHoldsOnePerTupleArrayPerStrategy) {
  // A serial 3-strategy sweep at 100k tuples on 32 processors. When every
  // point built its own trees and the relation stored all thirteen
  // Wisconsin attributes, it peaked at 29,435,856 live heap bytes over the
  // idle process (GCC 12, glibc malloc_usable_size); keeping every
  // strategy's trees alive at once measured 25.6 MB. When each partitioning
  // kept its per-node record lists beside its record homes and MAGIC kept
  // its whole grid file, it peaked at 14,464,120. Now each strategy keeps
  // one int per tuple plus per-node counts, and MAGIC keeps only its linear
  // scales: it measures 9,196,440. Any of those copies coming back fails
  // here: the grid file's bucket store costs 20 B per tuple (2 MB at 100k
  // tuples), the per-node lists 4 B per tuple per strategy plus push_back's
  // slack (1.2 MB and more for three strategies), and storing the eleven
  // derived 8-byte attributes again 8.8 MB.
  constexpr int64_t kBound = 10'000'000;
  exp::ExperimentConfig cfg;
  cfg.strategies = {"range", "BERD", "MAGIC"};
  cfg.cardinality = 100'000;
  cfg.correlation = 1.0;
  cfg.num_processors = 32;
  cfg.mpls = {1, 8};
  cfg.warmup_ms = 200;
  cfg.measure_ms = 500;
  const int64_t baseline = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_live_bytes.store(baseline, std::memory_order_relaxed);
  auto result = exp::RunThroughputSweep(cfg, exp::RunnerOptions{.jobs = 1});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const int64_t peak =
      g_peak_live_bytes.load(std::memory_order_relaxed) - baseline;
  ::testing::Test::RecordProperty("serial_sweep_peak_heap_bytes",
                                  std::to_string(peak));
  EXPECT_LE(peak, kBound) << peak << " peak live heap bytes";
}

}  // namespace
}  // namespace declust
