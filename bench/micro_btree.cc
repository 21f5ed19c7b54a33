// Micro-benchmarks of the B+-tree substrate: bulk load, point lookups at
// two fanouts, range-scan throughput, and the key-order sort that feeds
// every bulk load beside a key-only std::sort.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <random>

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

// Sort inputs by shape, 100k entries with rid = input position: 0 keys
// already in order, 1 a shuffled permutation (dense: the counting tier),
// 2 a shuffled permutation scaled by 1000003 (sparse: the radix tier),
// 3 keys modulo 10 (ties: std::sort).
std::vector<storage::BTreeEntry> SortInput(int64_t shape) {
  const int n = 100000;
  std::vector<storage::Value> keys(n);
  std::iota(keys.begin(), keys.end(), 0);
  if (shape != 0) std::shuffle(keys.begin(), keys.end(), std::mt19937_64(4));
  std::vector<storage::BTreeEntry> entries(n);
  for (int i = 0; i < n; ++i) {
    storage::Value key = keys[static_cast<size_t>(i)];
    if (shape == 2) key *= 1000003;
    if (shape == 3) key %= 10;
    entries[static_cast<size_t>(i)] = {key, static_cast<storage::RecordId>(i)};
  }
  return entries;
}

// Both sort benchmarks time a copy of the input as well as the sort.
void BM_SortByKey(benchmark::State& state) {
  const auto input = SortInput(state.range(0));
  for (auto _ : state) {
    auto entries = input;
    storage::SortByKey(&entries);
    benchmark::DoNotOptimize(entries.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_SortByKey)->DenseRange(0, 3);

void BM_StdSortByKey(benchmark::State& state) {
  const auto input = SortInput(state.range(0));
  for (auto _ : state) {
    auto entries = input;
    std::sort(entries.begin(), entries.end(),
              [](const storage::BTreeEntry& a, const storage::BTreeEntry& b) {
                return a.key < b.key;
              });
    benchmark::DoNotOptimize(entries.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(input.size()));
}
BENCHMARK(BM_StdSortByKey)->DenseRange(0, 3);

}  // namespace

BENCHMARK_MAIN();
