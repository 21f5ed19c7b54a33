#include "src/decluster/rebalance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <numeric>
#include <set>

#include "src/common/random.h"
#include "src/decluster/assignment.h"

namespace declust::decluster {
namespace {

// The dense hill climb as it stood before the sparse line index: a verbatim
// copy that scores every candidate pair over every line of its dimension.
// HillClimbRebalance must reproduce it exactly (see
// SparseClimbMatchesDenseReference).
namespace reference {

struct Spread {
  int pmax = 0;
  int pmin = 0;
  int64_t gap = 0;
};

Spread FindSpread(const std::vector<int64_t>& loads) {
  Spread s;
  for (int p = 0; p < static_cast<int>(loads.size()); ++p) {
    if (loads[static_cast<size_t>(p)] > loads[static_cast<size_t>(s.pmax)]) {
      s.pmax = p;
    }
    if (loads[static_cast<size_t>(p)] < loads[static_cast<size_t>(s.pmin)]) {
      s.pmin = p;
    }
  }
  s.gap = loads[static_cast<size_t>(s.pmax)] -
          loads[static_cast<size_t>(s.pmin)];
  return s;
}

// Progress potential: sum of squared loads. Strictly decreases whenever
// weight moves from a more-loaded to a less-loaded processor, so requiring
// strict decrease both guarantees termination and allows plateau moves of
// the max-min spread (several processors may share the maximum load).
int64_t SumSquares(const std::vector<int64_t>& loads) {
  int64_t s = 0;
  for (int64_t l : loads) s += l * l;
  return s;
}

RebalanceResult DenseHillClimbRebalance(
    const std::vector<int>& dims, const std::vector<int64_t>& cell_weights,
    int num_nodes, std::vector<int>* assignment, int max_swaps,
    int restrict_to_dim) {
  const int k = static_cast<int>(dims.size());
  int64_t n = 1;
  for (int d : dims) n *= d;
  assert(static_cast<int64_t>(assignment->size()) == n);
  assert(static_cast<int64_t>(cell_weights.size()) == n);

  std::vector<int64_t> loads(static_cast<size_t>(num_nodes), 0);
  for (int64_t c = 0; c < n; ++c) {
    loads[static_cast<size_t>((*assignment)[static_cast<size_t>(c)])] +=
        cell_weights[static_cast<size_t>(c)];
  }

  RebalanceResult result;
  result.spread_before = FindSpread(loads).gap;

  // Strides and, per dimension, the base indices of one representative line
  // (all cells whose coordinate in that dimension is 0).
  std::vector<int64_t> stride(static_cast<size_t>(k), 1);
  for (int d = k - 2; d >= 0; --d) {
    stride[static_cast<size_t>(d)] =
        stride[static_cast<size_t>(d + 1)] * dims[static_cast<size_t>(d + 1)];
  }
  std::vector<std::vector<int64_t>> bases(static_cast<size_t>(k));
  for (int d = 0; d < k; ++d) {
    const auto du = static_cast<size_t>(d);
    bases[du].reserve(static_cast<size_t>(n / dims[du]));
    for (int64_t c = 0; c < n; ++c) {
      const int coord = static_cast<int>((c / stride[du]) % dims[du]);
      if (coord == 0) bases[du].push_back(c);
    }
  }

  int64_t potential = SumSquares(loads);
  while (result.swaps < max_swaps) {
    const Spread cur = FindSpread(loads);
    if (cur.gap <= 1) break;

    // Best slice-pair swap by reduction of the pmax-pmin weight difference.
    // For large dimensions, restrict the search to the slices most involved
    // with the two extreme processors (keeps each iteration near-linear).
    constexpr int kMaxCandidates = 48;
    int best_dim = -1, best_s1 = -1, best_s2 = -1;
    int64_t best_reduction = 0;
    for (int d = 0; d < k; ++d) {
      if (restrict_to_dim >= 0 && d != restrict_to_dim) continue;
      const auto du = static_cast<size_t>(d);
      const int nd = dims[du];
      if (nd < 2) continue;
      // Candidate slice pairs. Small dimensions: all pairs. Large ones:
      // targeted pairs — for every line that contains both a weight-bearing
      // cell of the most-loaded processor and a cell of the least-loaded
      // one, swapping those two slices is guaranteed to move weight from
      // pmax toward pmin (the paper's "switch two rows or two columns to
      // reduce the weight difference between these two processors").
      std::vector<std::pair<int, int>> pairs;
      if (nd <= kMaxCandidates) {
        for (int s1 = 0; s1 < nd; ++s1) {
          for (int s2 = s1 + 1; s2 < nd; ++s2) pairs.emplace_back(s1, s2);
        }
      } else {
        constexpr size_t kMaxPairs = 4096;
        constexpr int kHeavyPerLine = 2;
        constexpr int kLightPerLine = 4;
        std::vector<std::pair<int64_t, int>> heavy;  // (owner load, slice)
        std::vector<std::pair<int64_t, int>> light;  // (load + weight, slice)
        for (int64_t base : bases[du]) {
          // In this line: weight-bearing cells with the most-loaded owners,
          // paired against the cells whose owners (after receiving that
          // weight) would be least loaded. Swapping such slices moves
          // weight downhill; several options per line keep the hill climb
          // from stalling in entangled local optima.
          heavy.clear();
          light.clear();
          for (int s = 0; s < nd; ++s) {
            const auto c = static_cast<size_t>(base + s * stride[du]);
            const int a = (*assignment)[c];
            const int64_t la = loads[static_cast<size_t>(a)];
            if (cell_weights[c] > 0) heavy.emplace_back(la, s);
            light.emplace_back(la + cell_weights[c], s);
          }
          // Ties on load break toward the smallest slice id in both
          // directions, so the candidate set — and with it the whole climb —
          // is a pure function of the weights, independent of container
          // ordering quirks.
          std::partial_sort(
              heavy.begin(),
              heavy.begin() +
                  std::min<size_t>(heavy.size(), kHeavyPerLine),
              heavy.end(), [](const std::pair<int64_t, int>& a,
                              const std::pair<int64_t, int>& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
          std::partial_sort(light.begin(),
                            light.begin() + std::min<size_t>(light.size(),
                                                             kLightPerLine),
                            light.end());
          const size_t nh = std::min<size_t>(heavy.size(), kHeavyPerLine);
          const size_t nl = std::min<size_t>(light.size(), kLightPerLine);
          for (size_t hi = 0; hi < nh; ++hi) {
            for (size_t li = 0; li < nl; ++li) {
              const int s1 = heavy[hi].second;
              const int s2 = light[li].second;
              if (s1 == s2 || light[li].first >= heavy[hi].first) continue;
              pairs.emplace_back(std::min(s1, s2), std::max(s1, s2));
            }
          }
          if (pairs.size() >= kMaxPairs) break;
        }
        std::sort(pairs.begin(), pairs.end());
        pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
      }
      // Scratch for per-processor load deltas of one candidate swap.
      std::vector<std::pair<int, int64_t>> deltas;
      for (const auto& [s1, s2] : pairs) {
        {
          deltas.clear();
          const int64_t off1 = s1 * stride[du];
          const int64_t off2 = s2 * stride[du];
          for (int64_t base : bases[du]) {
            const auto c1 = static_cast<size_t>(base + off1);
            const auto c2 = static_cast<size_t>(base + off2);
            const int a1 = (*assignment)[c1];
            const int a2 = (*assignment)[c2];
            if (a1 == a2) continue;
            const int64_t w1 = cell_weights[c1];
            const int64_t w2 = cell_weights[c2];
            if (w1 == w2) continue;
            // After the swap, a1 owns c2's weight and a2 owns c1's.
            deltas.emplace_back(a1, w2 - w1);
            deltas.emplace_back(a2, w1 - w2);
          }
          if (deltas.empty()) continue;
          // Net change of the sum-of-squares potential. Deltas for the same
          // processor must be merged before squaring.
          std::sort(deltas.begin(), deltas.end());
          int64_t dpot = 0;
          for (size_t i = 0; i < deltas.size();) {
            const int p = deltas[i].first;
            int64_t dp = 0;
            for (; i < deltas.size() && deltas[i].first == p; ++i) {
              dp += deltas[i].second;
            }
            const int64_t l = loads[static_cast<size_t>(p)];
            dpot += dp * (2 * l + dp);
          }
          const int64_t reduction = -dpot;
          if (reduction > best_reduction) {
            best_reduction = reduction;
            best_dim = d;
            best_s1 = s1;
            best_s2 = s2;
          }
        }
      }
    }
    if (best_dim < 0) break;

    // Apply the swap and recompute loads of the affected processors.
    const auto du = static_cast<size_t>(best_dim);
    const int64_t off1 = best_s1 * stride[du];
    const int64_t off2 = best_s2 * stride[du];
    for (int64_t base : bases[du]) {
      const auto c1 = static_cast<size_t>(base + off1);
      const auto c2 = static_cast<size_t>(base + off2);
      const int a1 = (*assignment)[c1];
      const int a2 = (*assignment)[c2];
      if (a1 == a2) continue;
      const int64_t w1 = cell_weights[c1];
      const int64_t w2 = cell_weights[c2];
      loads[static_cast<size_t>(a1)] += w2 - w1;
      loads[static_cast<size_t>(a2)] += w1 - w2;
      std::swap((*assignment)[c1], (*assignment)[c2]);
    }
    ++result.swaps;

    // Hill climbing must make global progress; otherwise revert and stop.
    const int64_t new_potential = SumSquares(loads);
    if (new_potential >= potential) {
      for (int64_t base : bases[du]) {
        const auto c1 = static_cast<size_t>(base + off1);
        const auto c2 = static_cast<size_t>(base + off2);
        const int a1 = (*assignment)[c1];
        const int a2 = (*assignment)[c2];
        if (a1 == a2) continue;
        const int64_t w1 = cell_weights[c1];
        const int64_t w2 = cell_weights[c2];
        loads[static_cast<size_t>(a1)] += w2 - w1;
        loads[static_cast<size_t>(a2)] += w1 - w2;
        std::swap((*assignment)[c1], (*assignment)[c2]);
      }
      --result.swaps;
      break;
    }
    potential = new_potential;
  }

  result.spread_after = FindSpread(loads).gap;
  return result;
}

}  // namespace reference

std::vector<int64_t> NodeLoads(const std::vector<int>& assignment,
                               const std::vector<int64_t>& weights,
                               int num_nodes) {
  std::vector<int64_t> loads(static_cast<size_t>(num_nodes), 0);
  for (size_t c = 0; c < assignment.size(); ++c) {
    loads[static_cast<size_t>(assignment[c])] += weights[c];
  }
  return loads;
}

TEST(RebalanceTest, BalancedInputNeedsNoSwaps) {
  const std::vector<int> dims = {4, 4};
  std::vector<int> a = {0, 1, 2, 3, 1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2};
  const std::vector<int64_t> w(16, 5);
  auto result = HillClimbRebalance(dims, w, 4, &a);
  EXPECT_EQ(result.swaps, 0);
  EXPECT_EQ(result.spread_before, 0);
  EXPECT_EQ(result.spread_after, 0);
}

TEST(RebalanceTest, DiagonalSkewIsReduced) {
  // The paper's worst case: all weight on the diagonal of a square grid,
  // processors assigned in a pattern that concentrates the diagonal.
  const int n = 16;
  const std::vector<int> dims = {n, n};
  std::vector<int64_t> w(static_cast<size_t>(n * n), 0);
  for (int i = 0; i < n; ++i) w[static_cast<size_t>(i * n + i)] = 100;
  // Tiled assignment with 2x2 tiles over 4 nodes places diagonal tiles on
  // few processors.
  auto a = TiledAssignment(dims, 4, {1.0, 1.0});
  ASSERT_TRUE(a.ok());
  std::vector<int> assignment = *a;
  auto before = NodeLoads(assignment, w, 4);
  const auto [b_mn, b_mx] = std::minmax_element(before.begin(), before.end());
  auto result = HillClimbRebalance(dims, w, 4, &assignment);
  auto after = NodeLoads(assignment, w, 4);
  const auto [a_mn, a_mx] = std::minmax_element(after.begin(), after.end());
  EXPECT_LE(*a_mx - *a_mn, *b_mx - *b_mn);
  EXPECT_EQ(result.spread_after, *a_mx - *a_mn);
  // Total weight conserved.
  EXPECT_EQ(std::accumulate(after.begin(), after.end(), int64_t{0}),
            std::accumulate(before.begin(), before.end(), int64_t{0}));
}

TEST(RebalanceTest, SwapsPreserveDistinctNodesPerSlice) {
  const int n = 12;
  const std::vector<int> dims = {n, n};
  std::vector<int64_t> w(static_cast<size_t>(n * n), 0);
  for (int i = 0; i < n; ++i) w[static_cast<size_t>(i * n + i)] = 50;
  auto a = TiledAssignment(dims, 6, {1.0, 1.0});
  ASSERT_TRUE(a.ok());
  std::vector<int> assignment = *a;
  auto stats_before = AnalyzeAssignment(dims, assignment, 6);
  HillClimbRebalance(dims, w, 6, &assignment);
  auto stats_after = AnalyzeAssignment(dims, assignment, 6);
  // The paper: "by swapping two slices of a dimension, the number of unique
  // processors that appear in each dimension does not change". Our swap
  // permutes whole slices, so per-slice distinct counts are preserved as a
  // multiset; the averages must match exactly.
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_NEAR(stats_before.avg_distinct_nodes_per_slice[d],
                stats_after.avg_distinct_nodes_per_slice[d], 1e-9);
  }
}

TEST(RebalanceTest, PaperWorstCaseThirtyTwoProcessors) {
  // Section 4: identical attribute values, 32 processors — after the
  // heuristic there should be far less spread than before (the paper
  // reports only ~20% difference between any two processors).
  const int n = 64;
  const std::vector<int> dims = {n, n};
  std::vector<int64_t> w(static_cast<size_t>(n * n), 0);
  for (int i = 0; i < n; ++i) w[static_cast<size_t>(i * n + i)] = 1562;
  auto a = TiledAssignment(dims, 32, {1.0, 1.0});
  ASSERT_TRUE(a.ok());
  std::vector<int> assignment = *a;
  auto result = HillClimbRebalance(dims, w, 32, &assignment);
  EXPECT_LT(result.spread_after, result.spread_before);
  auto loads = NodeLoads(assignment, w, 32);
  const auto [mn, mx] = std::minmax_element(loads.begin(), loads.end());
  const double mean = static_cast<double>(std::accumulate(
                          loads.begin(), loads.end(), int64_t{0})) /
                      32.0;
  // Within 60% of the mean after rebalancing (the initial assignment
  // leaves 16 of 32 processors empty: spread = 100% of max).
  EXPECT_LT(static_cast<double>(*mx - *mn), mean * 1.2);
  EXPECT_GT(result.swaps, 0);
}

TEST(RebalanceTest, RespectsSwapCap) {
  const int n = 32;
  const std::vector<int> dims = {n, n};
  std::vector<int64_t> w(static_cast<size_t>(n * n), 0);
  for (int i = 0; i < n; ++i) w[static_cast<size_t>(i * n + i)] = 7;
  auto a = TiledAssignment(dims, 8, {1.0, 1.0});
  ASSERT_TRUE(a.ok());
  std::vector<int> assignment = *a;
  auto result = HillClimbRebalance(dims, w, 8, &assignment, /*max_swaps=*/1);
  EXPECT_LE(result.swaps, 1);
}

TEST(RebalanceTest, OneDimensionalGrid) {
  const std::vector<int> dims = {8};
  std::vector<int64_t> w = {100, 0, 0, 0, 100, 0, 0, 0};
  std::vector<int> assignment = {0, 0, 1, 1, 0, 0, 1, 1};
  auto result = HillClimbRebalance(dims, w, 2, &assignment);
  auto loads = NodeLoads(assignment, w, 2);
  EXPECT_EQ(loads[0], 100);
  EXPECT_EQ(loads[1], 100);
  EXPECT_EQ(result.spread_after, 0);
}

TEST(RebalanceTest, ObservedWeightsScaleByFragmentAccessCounts) {
  // Cells 0,1 -> fragment 0; cells 2,3 -> fragment 1. Fragment 1 was read
  // 5x as often, so its cells carry 5x the effective weight.
  const std::vector<int64_t> tuples = {10, 20, 30, 40};
  const std::vector<int> assignment = {0, 0, 1, 1};
  const std::vector<int64_t> accesses = {2, 10};
  const auto w = ObservedCellWeights(tuples, assignment, accesses);
  EXPECT_EQ(w, (std::vector<int64_t>{20, 40, 300, 400}));
}

TEST(RebalanceTest, ObservedWeightsFallBackOnEmptyOrIdleWindows) {
  const std::vector<int64_t> tuples = {10, 20, 30, 40};
  const std::vector<int> assignment = {0, 0, 1, 1};
  // No counters at all and an all-zero window both leave the static
  // weights unchanged — the result must stay a usable rebalance input.
  EXPECT_EQ(ObservedCellWeights(tuples, assignment, {}), tuples);
  EXPECT_EQ(ObservedCellWeights(tuples, assignment, {0, 0}), tuples);
  // An idle (zero-count) fragment in an otherwise active window keeps
  // weight 1 per tuple; out-of-range fragment ids scale by 1 too.
  const auto w = ObservedCellWeights(tuples, {0, 0, 1, 7}, {0, 3});
  EXPECT_EQ(w, (std::vector<int64_t>{10, 20, 90, 40}));
}

TEST(RebalanceTest, ObservedWeightsSteerTheClimbTowardHotFragments) {
  // Statically balanced 1-D grid (equal tuples everywhere) that the access
  // window reveals as skewed: the hot fragment's cells all live on node 0.
  const std::vector<int> dims = {4};
  const std::vector<int64_t> tuples = {100, 100, 100, 100};
  std::vector<int> assignment = {0, 0, 1, 1};
  const std::vector<int64_t> accesses = {9, 1};
  // Static weights see nothing to do...
  std::vector<int> untouched = assignment;
  EXPECT_EQ(HillClimbRebalance(dims, tuples, 2, &untouched).swaps, 0);
  // ...observed weights split the hot pair across the nodes.
  const auto w = ObservedCellWeights(tuples, assignment, accesses);
  auto result = HillClimbRebalance(dims, w, 2, &assignment);
  EXPECT_GT(result.swaps, 0);
  EXPECT_LT(result.spread_after, result.spread_before);
  std::vector<int64_t> loads(2, 0);
  for (size_t c = 0; c < assignment.size(); ++c) {
    loads[static_cast<size_t>(assignment[c])] += w[c];
  }
  EXPECT_EQ(loads[0], loads[1]);
}

TEST(RebalanceTest, LargeDimensionClimbIsDeterministic) {
  // Above kMaxCandidates the climb samples targeted slice pairs; ties on
  // owner load must break on slice id so repeated runs pick identical
  // swaps. Many equal-weight diagonal cells make load ties ubiquitous.
  const int n = 96;
  const std::vector<int> dims = {n, n};
  std::vector<int64_t> w(static_cast<size_t>(n * n), 0);
  for (int i = 0; i < n; ++i) w[static_cast<size_t>(i * n + i)] = 11;
  auto a = TiledAssignment(dims, 8, {1.0, 1.0});
  ASSERT_TRUE(a.ok());
  std::vector<int> first = *a;
  std::vector<int> second = *a;
  auto r1 = HillClimbRebalance(dims, w, 8, &first);
  auto r2 = HillClimbRebalance(dims, w, 8, &second);
  EXPECT_EQ(r1.swaps, r2.swaps);
  EXPECT_EQ(r1.spread_after, r2.spread_after);
  EXPECT_EQ(first, second);
  EXPECT_LT(r1.spread_after, r1.spread_before);
}

enum class WeightShape { kDense, kSparse, kDiagonal, kDuplicate };

std::vector<int64_t> MakeWeights(const std::vector<int>& dims,
                                 WeightShape shape, RandomStream* rng) {
  int64_t n = 1;
  for (int d : dims) n *= d;
  std::vector<int64_t> w(static_cast<size_t>(n), 0);
  for (int64_t c = 0; c < n; ++c) {
    // Coordinates of c, dimension 0 slowest.
    std::vector<int> coord(dims.size());
    int64_t rest = c;
    for (size_t d = dims.size(); d-- > 0;) {
      coord[d] = static_cast<int>(rest % dims[d]);
      rest /= dims[d];
    }
    int64_t& cell = w[static_cast<size_t>(c)];
    switch (shape) {
      case WeightShape::kDense:
        cell = rng->Bernoulli(0.05) ? 0 : rng->UniformInt(1, 1000);
        break;
      case WeightShape::kSparse:
        cell = rng->Bernoulli(0.03) ? rng->UniformInt(1, 5000) : 0;
        break;
      case WeightShape::kDiagonal: {
        // Correlated attributes: every coordinate tracks coordinate 0.
        bool on = true;
        for (size_t d = 1; d < dims.size(); ++d) {
          on = on && coord[d] == coord[0] * dims[d] / dims[0];
        }
        cell = on ? rng->UniformInt(100, 2000) : 0;
        break;
      }
      case WeightShape::kDuplicate:
        cell = rng->Bernoulli(0.3) ? 7 : 0;
        break;
    }
  }
  return w;
}

// Runs the climb and the dense reference from `initial`, expects identical
// results, and returns the reference's swap count.
int ExpectMatchesDenseReference(const std::vector<int>& dims,
                                const std::vector<int64_t>& weights,
                                int nodes, const std::vector<int>& initial,
                                int max_swaps, int restrict_to_dim) {
  std::vector<int> expected = initial;
  std::vector<int> actual = initial;
  const RebalanceResult want = reference::DenseHillClimbRebalance(
      dims, weights, nodes, &expected, max_swaps, restrict_to_dim);
  const RebalanceResult got = HillClimbRebalance(
      dims, weights, nodes, &actual, max_swaps, restrict_to_dim);
  EXPECT_EQ(got.swaps, want.swaps);
  EXPECT_EQ(got.spread_before, want.spread_before);
  EXPECT_EQ(got.spread_after, want.spread_after);
  EXPECT_EQ(actual, expected);
  return want.swaps;
}

TEST(RebalanceTest, SparseClimbMatchesDenseReference) {
  RandomStream rng(20260417);
  int cases = 0, swapped_targeted = 0, swapped_all_pairs = 0;
  for (const WeightShape shape :
       {WeightShape::kDense, WeightShape::kSparse, WeightShape::kDiagonal,
        WeightShape::kDuplicate}) {
    for (const int restrict_to_dim : {-1, 0, 1}) {
      for (const int k : {2, 3}) {
        for (const bool large : {false, true}) {
          // Above 48 slices a dimension takes the targeted-pair path; at or
          // below it, every pair is a candidate.
          std::vector<int> dims(static_cast<size_t>(k));
          for (int& d : dims) {
            d = static_cast<int>(k == 2 ? rng.UniformInt(2, 40)
                                        : rng.UniformInt(2, 6));
          }
          if (large) {
            dims[static_cast<size_t>(rng.UniformInt(0, k - 1))] =
                static_cast<int>(rng.UniformInt(49, k == 2 ? 90 : 64));
          }
          const int nodes = static_cast<int>(rng.UniformInt(2, 24));
          const auto weights = MakeWeights(dims, shape, &rng);
          std::vector<int> initial;
          if (rng.Bernoulli(0.5)) {
            auto tiled = TiledAssignment(
                dims, nodes, std::vector<double>(dims.size(), 1.0));
            ASSERT_TRUE(tiled.ok());
            initial = *tiled;
          } else {
            initial.resize(weights.size());
            for (int& a : initial) {
              a = static_cast<int>(rng.UniformInt(0, nodes - 1));
            }
          }
          for (const int max_swaps : {1, 3, 10'000}) {
            ::testing::Message trace;
            trace << "shape " << static_cast<int>(shape) << " dims "
                  << dims[0];
            for (size_t d = 1; d < dims.size(); ++d) trace << "x" << dims[d];
            trace << " nodes " << nodes << " restrict " << restrict_to_dim
                  << " max_swaps " << max_swaps;
            SCOPED_TRACE(trace);
            ++cases;
            if (ExpectMatchesDenseReference(dims, weights, nodes, initial,
                                            max_swaps, restrict_to_dim) > 0) {
              ++(large ? swapped_targeted : swapped_all_pairs);
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 4 * 3 * 2 * 2 * 3);
  // Both candidate paths must actually have climbed.
  EXPECT_GT(swapped_targeted, 10);
  EXPECT_GT(swapped_all_pairs, 10);
}

TEST(RebalanceTest, ScaleSetupShapeMatchesDenseReference) {
  // MAGIC's directory on 500k correlated tuples over 128 processors: 289x288
  // cells, weight on the diagonal plus a near-diagonal neighbour, tiled
  // assignment. Both climbs MagicPartitioning::Create runs.
  const std::vector<int> dims = {289, 288};
  std::vector<int64_t> weights(static_cast<size_t>(dims[0]) * dims[1], 0);
  for (int i = 0; i < dims[0]; ++i) {
    const int j = i * dims[1] / dims[0];
    weights[static_cast<size_t>(i) * dims[1] + j] = 1000 + 7 * (i % 13);
    if (i % 5 < 2 && j + 1 < dims[1]) {
      weights[static_cast<size_t>(i) * dims[1] + j + 1] = 500;
    }
  }
  const auto tiled = TiledAssignment(dims, 128, {1.0, 1.0});
  ASSERT_TRUE(tiled.ok());
  for (const int restrict_to_dim : {1, -1}) {
    SCOPED_TRACE(restrict_to_dim);
    EXPECT_GT(ExpectMatchesDenseReference(dims, weights, 128, *tiled, 500,
                                          restrict_to_dim),
              40);
  }
}

TEST(RebalanceTest, ThreeDimensionalClimbsRebuildCrossLines) {
  // Unrestricted climbs over 3-D grids with one or two dimensions above
  // the targeted-pair threshold: a swap along one dimension changes the
  // owners of whole lines along the others, whose cached owner groups must
  // be rebuilt before the next candidate scan.
  RandomStream rng(20261018);
  int swapped = 0;
  for (const WeightShape shape :
       {WeightShape::kSparse, WeightShape::kDiagonal,
        WeightShape::kDuplicate}) {
    for (const int large : {1, 2}) {
      std::vector<int> dims = {static_cast<int>(rng.UniformInt(2, 5)),
                               static_cast<int>(rng.UniformInt(2, 5)),
                               static_cast<int>(rng.UniformInt(2, 5))};
      std::vector<int> order = {0, 1, 2};
      rng.Shuffle(&order);
      for (int i = 0; i < large; ++i) {
        dims[static_cast<size_t>(order[static_cast<size_t>(i)])] =
            static_cast<int>(rng.UniformInt(49, 60));
      }
      const int nodes = static_cast<int>(rng.UniformInt(3, 20));
      const auto weights = MakeWeights(dims, shape, &rng);
      auto tiled =
          TiledAssignment(dims, nodes, std::vector<double>(3, 1.0));
      ASSERT_TRUE(tiled.ok());
      for (const int max_swaps : {5, 10'000}) {
        SCOPED_TRACE(::testing::Message()
                     << "shape " << static_cast<int>(shape) << " dims "
                     << dims[0] << "x" << dims[1] << "x" << dims[2]
                     << " max_swaps " << max_swaps);
        swapped += ExpectMatchesDenseReference(dims, weights, nodes, *tiled,
                                               max_swaps, -1) > 0;
      }
    }
  }
  EXPECT_GT(swapped, 6);
}

TEST(RebalanceTest, DuplicateWeightsMatchDenseReference) {
  // Equal weights everywhere make load ties the rule: every candidate
  // order and every strict comparison is exercised on ties.
  RandomStream rng(7);
  int swapped = 0;
  for (const double density : {0.02, 0.3, 0.9}) {
    for (const int restrict_to_dim : {-1, 0, 1}) {
      const std::vector<int> dims = {static_cast<int>(rng.UniformInt(49, 80)),
                                     static_cast<int>(rng.UniformInt(49, 80))};
      std::vector<int64_t> weights(static_cast<size_t>(dims[0]) * dims[1]);
      for (int64_t& w : weights) w = rng.Bernoulli(density) ? 5 : 0;
      const int nodes = static_cast<int>(rng.UniformInt(2, 32));
      std::vector<int> initial(weights.size());
      for (int& a : initial) a = static_cast<int>(rng.UniformInt(0, nodes - 1));
      SCOPED_TRACE(::testing::Message()
                   << "density " << density << " restrict " << restrict_to_dim
                   << " dims " << dims[0] << "x" << dims[1]);
      swapped += ExpectMatchesDenseReference(dims, weights, nodes, initial, 25,
                                             restrict_to_dim) > 0;
    }
  }
  EXPECT_GT(swapped, 6);
}

}  // namespace
}  // namespace declust::decluster
