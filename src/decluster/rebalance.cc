#include "src/decluster/rebalance.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdlib>
#include <functional>

namespace declust::decluster {

namespace {

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

// Keeps `top` (first *size entries) as the `top.size()` smallest elements
// seen so far under the strict total order `before`, in order — the prefix
// std::partial_sort would produce over the same elements.
template <typename T, size_t K, typename Before>
void InsertTopK(std::array<T, K>& top, size_t* size, const T& v,
                Before before) {
  if (*size == K && !before(v, top[K - 1])) return;
  size_t i = *size < K ? (*size)++ : K - 1;
  for (; i > 0 && before(v, top[i - 1]); --i) top[i] = top[i - 1];
  top[i] = v;
}

}  // namespace

RebalanceResult HillClimbRebalance(const std::vector<int>& dims,
                                   const std::vector<int64_t>& cell_weights,
                                   int num_nodes, std::vector<int>* assignment,
                                   int max_swaps, int restrict_to_dim) {
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

  // Sparse line index over the fixed weights, built for the dimensions the
  // climb may swap. weighted[d][s]: the bases of the lines whose cell in
  // slice s has non-zero weight. A line where both cells of a candidate
  // pair weigh zero contributes no load delta, so scoring a pair over the
  // union of its two lists equals scoring it over every line.
  // heavy_lines[d]: the bases of the lines holding a positive-weight cell —
  // the only lines that can yield targeted candidate pairs.
  constexpr int kMaxCandidates = 48;
  std::vector<std::vector<std::vector<int64_t>>> weighted(
      static_cast<size_t>(k));
  std::vector<std::vector<int64_t>> heavy_lines(static_cast<size_t>(k));
  for (int d = 0; d < k; ++d) {
    if (restrict_to_dim >= 0 && d != restrict_to_dim) continue;
    const auto du = static_cast<size_t>(d);
    const int nd = dims[du];
    if (nd < 2) continue;
    weighted[du].resize(static_cast<size_t>(nd));
    for (int64_t c = 0; c < n; ++c) {
      const int64_t w = cell_weights[static_cast<size_t>(c)];
      if (w == 0) continue;
      const int s = static_cast<int>((c / stride[du]) % nd);
      const int64_t base = c - s * stride[du];
      weighted[du][static_cast<size_t>(s)].push_back(base);
      if (w > 0 && nd > kMaxCandidates) heavy_lines[du].push_back(base);
    }
    std::sort(heavy_lines[du].begin(), heavy_lines[du].end());
    heavy_lines[du].erase(
        std::unique(heavy_lines[du].begin(), heavy_lines[du].end()),
        heavy_lines[du].end());
  }

  // Per-iteration scratch: candidate pairs, per-processor load deltas of one
  // candidate swap, and a line's top heavy and light cells.
  constexpr size_t kMaxPairs = 4096;
  constexpr int kHeavyPerLine = 2;
  constexpr int kLightPerLine = 4;
  std::vector<std::pair<int, int>> pairs;
  std::vector<std::pair<int, int64_t>> deltas;
  std::array<std::pair<int64_t, int>, kHeavyPerLine> heavy;  // (load, slice)
  std::array<std::pair<int64_t, int>, kLightPerLine> light;  // (load+w, slice)
  const auto heavier = [](const std::pair<int64_t, int>& a,
                          const std::pair<int64_t, int>& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  };

  int64_t potential = SumSquares(loads);
  while (result.swaps < max_swaps) {
    const Spread cur = FindSpread(loads);
    if (cur.gap <= 1) break;

    // Best slice-pair swap by reduction of the pmax-pmin weight difference.
    // For large dimensions, restrict the search to the slices most involved
    // with the two extreme processors (keeps each iteration near-linear).
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
      pairs.clear();
      if (nd <= kMaxCandidates) {
        for (int s1 = 0; s1 < nd; ++s1) {
          for (int s2 = s1 + 1; s2 < nd; ++s2) pairs.emplace_back(s1, s2);
        }
      } else {
        for (int64_t base : heavy_lines[du]) {
          // In this line: weight-bearing cells with the most-loaded owners,
          // paired against the cells whose owners (after receiving that
          // weight) would be least loaded. Swapping such slices moves
          // weight downhill; several options per line keep the hill climb
          // from stalling in entangled local optima. Ties on load break
          // toward the smallest slice id in both directions, so the
          // candidate set — and with it the whole climb — is a pure
          // function of the weights.
          size_t nh = 0, nl = 0;
          for (int s = 0; s < nd; ++s) {
            const auto c = static_cast<size_t>(base + s * stride[du]);
            const int64_t la =
                loads[static_cast<size_t>((*assignment)[c])];
            if (cell_weights[c] > 0) InsertTopK(heavy, &nh, {la, s}, heavier);
            InsertTopK(light, &nl, {la + cell_weights[c], s},
                       std::less<std::pair<int64_t, int>>());
          }
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
      for (const auto& [s1, s2] : pairs) {
        deltas.clear();
        const int64_t off1 = s1 * stride[du];
        const int64_t off2 = s2 * stride[du];
        const auto add_line = [&](int64_t base) {
          const auto c1 = static_cast<size_t>(base + off1);
          const auto c2 = static_cast<size_t>(base + off2);
          const int a1 = (*assignment)[c1];
          const int a2 = (*assignment)[c2];
          if (a1 == a2) return;
          const int64_t w1 = cell_weights[c1];
          const int64_t w2 = cell_weights[c2];
          if (w1 == w2) return;
          // After the swap, a1 owns c2's weight and a2 owns c1's.
          deltas.emplace_back(a1, w2 - w1);
          deltas.emplace_back(a2, w1 - w2);
        };
        // Each line of the union of the two slices' weighted lists, once:
        // s1's lines, then s2's lines whose s1 cell is empty (the others
        // are already in s1's list). Deltas are sorted before they are
        // summed, so the visiting order does not matter.
        for (int64_t base : weighted[du][static_cast<size_t>(s1)]) {
          add_line(base);
        }
        for (int64_t base : weighted[du][static_cast<size_t>(s2)]) {
          if (cell_weights[static_cast<size_t>(base + off1)] == 0) {
            add_line(base);
          }
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

std::vector<int64_t> ObservedCellWeights(
    const std::vector<int64_t>& tuple_weights,
    const std::vector<int>& assignment,
    const std::vector<int64_t>& fragment_accesses) {
  std::vector<int64_t> out = tuple_weights;
  bool any = false;
  for (int64_t a : fragment_accesses) {
    if (a > 0) {
      any = true;
      break;
    }
  }
  if (!any) return out;
  assert(assignment.size() == tuple_weights.size());
  for (size_t c = 0; c < out.size(); ++c) {
    const int frag = assignment[c];
    // A fragment never observed in the window keeps weight 1 per tuple so
    // its cells still count (it may simply have been idle, not empty).
    const int64_t scale =
        frag >= 0 && static_cast<size_t>(frag) < fragment_accesses.size()
            ? std::max<int64_t>(1, fragment_accesses[static_cast<size_t>(frag)])
            : 1;
    out[c] *= scale;
  }
  return out;
}

}  // namespace declust::decluster
