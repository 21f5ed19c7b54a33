// Micro-benchmarks of the B+-tree substrate: bulk load, point lookups at
// two fanouts, and range-scan throughput.
#include <benchmark/benchmark.h>

#include "src/common/random.h"
#include "src/storage/btree.h"

namespace {

using namespace declust;  // NOLINT(build/namespaces)

void BM_BulkLoad(benchmark::State& state) {
  const int n = 100000;
  std::vector<storage::BTreeEntry> entries;
  entries.reserve(n);
  for (int i = 0; i < n; ++i) {
    entries.push_back({i, static_cast<storage::RecordId>(i)});
  }
  for (auto _ : state) {
    auto t = storage::BPlusTree::BulkLoad(entries, 256);
    benchmark::DoNotOptimize(t.leaf_count());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BulkLoad);

void BM_PointSearch(benchmark::State& state) {
  const int n = 100000;
  std::vector<storage::BTreeEntry> entries;
  for (int i = 0; i < n; ++i) {
    entries.push_back({i, static_cast<storage::RecordId>(i)});
  }
  auto t = storage::BPlusTree::BulkLoad(entries,
                                        static_cast<int>(state.range(0)));
  RandomStream rng(2);
  for (auto _ : state) {
    const storage::Value key = rng.UniformInt(0, n - 1);
    benchmark::DoNotOptimize(t.Range(key, key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PointSearch)->Arg(16)->Arg(256);

void BM_RangeScan(benchmark::State& state) {
  const int n = 100000;
  std::vector<storage::BTreeEntry> entries;
  for (int i = 0; i < n; ++i) {
    entries.push_back({i, static_cast<storage::RecordId>(i)});
  }
  auto t = storage::BPlusTree::BulkLoad(entries, 256);
  const int64_t width = state.range(0);
  RandomStream rng(3);
  for (auto _ : state) {
    const int64_t lo = rng.UniformInt(0, n - width - 1);
    int64_t rids = 0;
    for (const auto& e : t.Range(lo, lo + width - 1)) rids += e.rid;
    benchmark::DoNotOptimize(rids);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_RangeScan)->Arg(10)->Arg(300)->Arg(10000);

}  // namespace

BENCHMARK_MAIN();
