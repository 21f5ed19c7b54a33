// Ablation of the processor-assignment heuristics: tiled latin-square
// assignment vs naive round robin (distinct processors per slice — the
// quantity that decides how many processors a MAGIC query touches), the
// cost of the section-4 hill-climbing rebalancer on correlated data, and
// the whole MAGIC build it is part of.
#include <benchmark/benchmark.h>

#include <iostream>

#include "src/decluster/assignment.h"
#include "src/decluster/magic.h"
#include "src/decluster/rebalance.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

namespace {

using namespace declust;  // NOLINT(build/namespaces)

void BM_TiledAssignment(benchmark::State& state) {
  const std::vector<int> dims = {101, 91};
  for (auto _ : state) {
    auto a = decluster::TiledAssignment(dims, 32, {9.0, 9.0});
    benchmark::DoNotOptimize(a.ok());
  }
}
BENCHMARK(BM_TiledAssignment);

void BM_AnalyzeAssignment(benchmark::State& state) {
  const std::vector<int> dims = {101, 91};
  auto a = decluster::TiledAssignment(dims, 32, {9.0, 9.0});
  for (auto _ : state) {
    auto stats = decluster::AnalyzeAssignment(dims, *a, 32);
    benchmark::DoNotOptimize(stats.avg_distinct_nodes_per_slice[0]);
  }
}
BENCHMARK(BM_AnalyzeAssignment);

void BM_RebalanceDiagonal(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<int> dims = {n, n};
  std::vector<int64_t> weights(static_cast<size_t>(n) * n, 0);
  for (int i = 0; i < n; ++i) weights[static_cast<size_t>(i) * n + i] = 100;
  auto base = decluster::TiledAssignment(dims, 32, {1.0, 1.0});
  for (auto _ : state) {
    auto assignment = *base;
    auto result =
        decluster::HillClimbRebalance(dims, weights, 32, &assignment, 200);
    benchmark::DoNotOptimize(result.spread_after);
  }
}
BENCHMARK(BM_RebalanceDiagonal)->Arg(32)->Arg(64);

// MAGIC's directory on the scale_setup workload (500k correlated tuples, 128
// processors): 289x288 cells of which ~400 along the diagonal hold tuples.
// The argument is restrict_to_dim (1 = the coarse dimension, -1 = both), the
// two climbs MagicPartitioning::Create runs.
void BM_RebalanceScaleSetup(benchmark::State& state) {
  const int restrict_to_dim = static_cast<int>(state.range(0));
  const std::vector<int> dims = {289, 288};
  std::vector<int64_t> weights(static_cast<size_t>(dims[0]) * dims[1], 0);
  for (int i = 0; i < dims[0]; ++i) {
    const int j = i * dims[1] / dims[0];
    weights[static_cast<size_t>(i) * dims[1] + j] = 1000;
    if (i % 5 < 2 && j + 1 < dims[1]) {
      weights[static_cast<size_t>(i) * dims[1] + j + 1] = 500;
    }
  }
  auto base = decluster::TiledAssignment(dims, 128, {1.0, 1.0});
  for (auto _ : state) {
    auto assignment = *base;
    auto result = decluster::HillClimbRebalance(
        dims, weights, 128, &assignment, 500, restrict_to_dim);
    benchmark::DoNotOptimize(result.spread_after);
    benchmark::DoNotOptimize(assignment.data());
  }
}
BENCHMARK(BM_RebalanceScaleSetup)
    ->Arg(1)
    ->Arg(-1)
    ->Unit(benchmark::kMillisecond);

// MagicPartitioning::Create on the scale_setup workload's relation (500k
// correlated Wisconsin tuples, 128 processors, the low-low mix): grid-file
// bulk load, cell weights, tiled assignment and both rebalancing climbs.
void BM_MagicCreateScaleSetup(benchmark::State& state) {
  workload::WisconsinOptions o;
  o.cardinality = 500'000;
  o.correlation = 1.0;
  o.seed = 7;
  const storage::Relation rel = workload::MakeWisconsin(o);
  const workload::Workload wl = workload::MakeMix(
      workload::ResourceClass::kLow, workload::ResourceClass::kLow);
  const std::vector<storage::AttrId> attrs = {
      workload::WisconsinAttrs::kUnique1, workload::WisconsinAttrs::kUnique2};
  for (auto _ : state) {
    auto part = decluster::MagicPartitioning::Create(rel, attrs, wl, 128);
    if (!part.ok()) {
      state.SkipWithError(part.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize((*part)->cell_nodes().data());
  }
}
BENCHMARK(BM_MagicCreateScaleSetup)->Unit(benchmark::kMillisecond);

// Not a timing benchmark: prints the ablation table comparing tiled vs
// round-robin assignment quality on the paper's directory shapes.
void BM_QualityReport(benchmark::State& state) {
  for (auto _ : state) {
  }
  const struct {
    const char* mix;
    std::vector<int> dims;
    std::vector<double> mi;
  } cases[] = {
      {"low-low (62x61)", {62, 61}, {1, 1}},
      {"low-moderate (193x23)", {193, 23}, {1, 9}},
      {"moderate-moderate (101x91)", {101, 91}, {9, 9}},
  };
  std::cout << "\nAssignment quality (avg distinct processors per slice, "
               "dimension A / B):\n";
  for (const auto& c : cases) {
    auto tiled = decluster::TiledAssignment(c.dims, 32, c.mi);
    auto rr = decluster::RoundRobinAssignment(c.dims, 32);
    auto ts = decluster::AnalyzeAssignment(c.dims, *tiled, 32);
    auto rs = decluster::AnalyzeAssignment(c.dims, rr, 32);
    std::cout << "  " << c.mix << ": tiled "
              << ts.avg_distinct_nodes_per_slice[0] << " / "
              << ts.avg_distinct_nodes_per_slice[1] << ", round-robin "
              << rs.avg_distinct_nodes_per_slice[0] << " / "
              << rs.avg_distinct_nodes_per_slice[1] << "\n";
  }
  state.SetItemsProcessed(1);
}
BENCHMARK(BM_QualityReport)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
