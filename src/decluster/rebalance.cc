#include "src/decluster/rebalance.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdlib>
#include <functional>
#include <span>

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
// std::partial_sort would produce over the same elements. Returns whether
// `v` entered.
template <typename T, size_t K, typename Before>
bool InsertTopK(std::array<T, K>& top, size_t* size, const T& v,
                Before before) {
  if (*size == K && !before(v, top[K - 1])) return false;
  size_t i = *size < K ? (*size)++ : K - 1;
  for (; i > 0 && before(v, top[i - 1]); --i) top[i] = top[i - 1];
  top[i] = v;
  return true;
}

using Keyed = std::pair<int64_t, int>;  // (load key, slice)

// A line's candidate cells. heavy: its positive-weight cells, owner load
// descending then slice ascending. light: all its cells, (owner load plus
// cell weight, slice) ascending. Both orders are strict and total, so the
// candidate set — and with it the whole climb — is a pure function of the
// weights.
constexpr size_t kHeavyPerLine = 2;
constexpr size_t kLightPerLine = 4;
struct LineTop {
  std::array<Keyed, kHeavyPerLine> heavy;
  std::array<Keyed, kLightPerLine> light;
  size_t nh = 0;
  size_t nl = 0;

  void AddHeavy(const Keyed& v) {
    InsertTopK(heavy, &nh, v, [](const Keyed& a, const Keyed& b) {
      return a.first != b.first ? a.first > b.first : a.second < b.second;
    });
  }
  bool AddLight(const Keyed& v) {
    return InsertTopK(light, &nl, v, std::less<Keyed>());
  }
};

// Owner index of one dimension's heavy lines: the lines holding a
// positive-weight cell, the only lines that yield targeted candidate pairs.
// Line i keeps its non-empty slices (fixed: a swap moves owners, never
// weights) and its empty slices sorted by (owner, slice), one group per
// distinct owner. An empty cell's light key is its owner's load, so within
// a group keys differ only by slice: only a group's first kLightPerLine
// slices can reach the light top-k, and a group stops at its first slice
// that misses it. A line's top cells then cost its non-empty cells plus its
// distinct owners, not its length.
class HeavyLines {
 public:
  HeavyLines() = default;
  // Indexes the lines with the given bases (ascending) along a dimension
  // of `nd` slices at `stride`.
  HeavyLines(std::vector<int64_t> bases, int nd, int64_t stride,
             int num_nodes, const std::vector<int64_t>* weights,
             const std::vector<int>* owner)
      : bases_(std::move(bases)),
        nd_(nd),
        stride_(stride),
        group_cap_(std::min(nd, num_nodes)),
        weights_(weights),
        owner_(owner),
        nonempty_start_(bases_.size() + 1, 0),
        empty_(bases_.size() * static_cast<size_t>(nd)),
        num_groups_(bases_.size(), 0),
        groups_(bases_.size() * static_cast<size_t>(group_cap_)),
        cursor_(static_cast<size_t>(num_nodes), 0) {
    for (size_t i = 0; i < bases_.size(); ++i) {
      for (int s = 0; s < nd_; ++s) {
        if ((*weights_)[Cell(i, s)] != 0) nonempty_.push_back(s);
      }
      nonempty_start_[i + 1] = static_cast<int>(nonempty_.size());
      Rebuild(i);
    }
  }

  size_t size() const { return bases_.size(); }
  int64_t base(size_t i) const { return bases_[i]; }

  // Line i's top cells under the current owners and loads.
  void Top(size_t i, const std::vector<int64_t>& loads, LineTop* top) const {
    top->nh = top->nl = 0;
    for (int p = nonempty_start_[i]; p < nonempty_start_[i + 1]; ++p) {
      const int s = nonempty_[static_cast<size_t>(p)];
      const size_t c = Cell(i, s);
      const int64_t la = loads[static_cast<size_t>((*owner_)[c])];
      const int64_t w = (*weights_)[c];
      if (w > 0) top->AddHeavy({la, s});
      top->AddLight({la + w, s});
    }
    const int* empty = Empty(i);
    for (const Group& g : Groups(i)) {
      const int64_t la = loads[static_cast<size_t>(g.owner)];
      const int end =
          std::min(g.end, g.begin + static_cast<int>(kLightPerLine));
      for (int j = g.begin; j < end; ++j) {
        if (!top->AddLight({la, empty[j]})) break;
      }
    }
  }

  // Before slices s1 and s2 of every line swap owners: if line i's two
  // cells are both empty, their owners trade one empty slice each. Returns
  // false when exactly one of them is empty; the line must then be rebuilt
  // after the swap.
  bool Trade(size_t i, int s1, int s2) {
    const size_t c1 = Cell(i, s1);
    const size_t c2 = Cell(i, s2);
    const int a1 = (*owner_)[c1];
    const int a2 = (*owner_)[c2];
    if (a1 == a2) return true;
    const bool e1 = (*weights_)[c1] == 0;
    const bool e2 = (*weights_)[c2] == 0;
    if (e1 != e2) return false;
    if (e1) {
      Replace(i, a1, s1, s2);
      Replace(i, a2, s2, s1);
    }
    return true;
  }

  // Rebuilds line i's groups from the current owners: a counting sort of
  // its empty slices on owner, stable, so each group's slices ascend.
  void Rebuild(size_t i) {
    for (int s = 0; s < nd_; ++s) {
      const size_t c = Cell(i, s);
      if ((*weights_)[c] == 0) ++cursor_[static_cast<size_t>((*owner_)[c])];
    }
    Group* groups = groups_.data() + i * static_cast<size_t>(group_cap_);
    int ng = 0;
    int pos = 0;
    for (size_t p = 0; p < cursor_.size(); ++p) {
      const int count = cursor_[p];
      if (count == 0) continue;
      groups[ng++] = {static_cast<int>(p), pos, pos + count};
      cursor_[p] = pos;
      pos += count;
    }
    num_groups_[i] = ng;
    int* empty = Empty(i);
    for (int s = 0; s < nd_; ++s) {
      const size_t c = Cell(i, s);
      if ((*weights_)[c] == 0) {
        empty[cursor_[static_cast<size_t>((*owner_)[c])]++] = s;
      }
    }
    for (int g = 0; g < ng; ++g) {
      cursor_[static_cast<size_t>(groups[g].owner)] = 0;
    }
  }

 private:
  struct Group {
    int owner;
    int begin;  // the group's run in the line's empty slices
    int end;
  };

  size_t Cell(size_t i, int s) const {
    return static_cast<size_t>(bases_[i] + s * stride_);
  }
  std::span<const Group> Groups(size_t i) const {
    return {groups_.data() + i * static_cast<size_t>(group_cap_),
            static_cast<size_t>(num_groups_[i])};
  }
  const int* Empty(size_t i) const {
    return empty_.data() + i * static_cast<size_t>(nd_);
  }
  int* Empty(size_t i) {
    return empty_.data() + i * static_cast<size_t>(nd_);
  }

  // Replaces slice `from` by `to` in owner a's group of line i, keeping the
  // group sorted.
  void Replace(size_t i, int a, int from, int to) {
    const auto groups = Groups(i);
    const auto g = std::lower_bound(
        groups.begin(), groups.end(), a,
        [](const Group& x, int owner) { return x.owner < owner; });
    assert(g != groups.end() && g->owner == a);
    int* first = Empty(i) + g->begin;
    int* last = Empty(i) + g->end;
    int* p = std::lower_bound(first, last, from);
    assert(p != last && *p == from);
    if (to > from) {
      for (; p + 1 < last && p[1] < to; ++p) p[0] = p[1];
    } else {
      for (; p > first && p[-1] > to; --p) p[0] = p[-1];
    }
    *p = to;
  }

  std::vector<int64_t> bases_;
  int nd_ = 0;
  int64_t stride_ = 0;
  int group_cap_ = 0;  // distinct owners a line can hold
  const std::vector<int64_t>* weights_ = nullptr;
  const std::vector<int>* owner_ = nullptr;
  std::vector<int> nonempty_start_;  // line i: nonempty_[start[i], start[i+1])
  std::vector<int> nonempty_;
  std::vector<int> empty_;  // line i: empty_[i * nd_, ...), grouped
  std::vector<int> num_groups_;
  std::vector<Group> groups_;  // line i: groups_[i * group_cap_, ...)
  std::vector<int> cursor_;    // Rebuild scratch, one per processor
};

// Calls fn(s1, s2) once for each distinct pair in `pairs` (each s1 < s2 <
// nd), in ascending (s1, s2) order: a counting sort on s1, then each s1's
// few partners sorted. `start` and `second` are scratch.
template <typename Fn>
void ForEachDistinctPair(const std::vector<std::pair<int, int>>& pairs,
                         int nd, std::vector<int>* start,
                         std::vector<int>* second, Fn&& fn) {
  start->assign(static_cast<size_t>(nd) + 1, 0);
  for (const auto& [s1, s2] : pairs) ++(*start)[static_cast<size_t>(s1) + 1];
  for (size_t s = 0; s < static_cast<size_t>(nd); ++s) {
    (*start)[s + 1] += (*start)[s];
  }
  second->resize(pairs.size());
  for (const auto& [s1, s2] : pairs) {
    (*second)[static_cast<size_t>((*start)[static_cast<size_t>(s1)]++)] = s2;
  }
  // start[s1] now holds the end of s1's run.
  auto first = second->begin();
  for (int s1 = 0; s1 < nd; ++s1) {
    const auto last = second->begin() + (*start)[static_cast<size_t>(s1)];
    std::sort(first, last);
    for (auto it = first; it != last; ++it) {
      if (it == first || *it != it[-1]) fn(s1, *it);
    }
    first = last;
  }
}

// Net change of the sum-of-squares potential from per-processor load
// deltas. A processor's deltas are merged before squaring; they are integer
// sums, so the order they arrive in is immaterial.
class PotentialChange {
 public:
  explicit PotentialChange(int num_nodes)
      : delta_(static_cast<size_t>(num_nodes), 0),
        touched_(static_cast<size_t>(num_nodes), 0) {}

  void Add(int p, int64_t v) {
    const auto pu = static_cast<size_t>(p);
    if (!touched_[pu]) {
      touched_[pu] = 1;
      list_.push_back(p);
    }
    delta_[pu] += v;
  }

  // The change under `loads`; clears the deltas.
  int64_t Take(const std::vector<int64_t>& loads) {
    int64_t change = 0;
    for (int p : list_) {
      const auto pu = static_cast<size_t>(p);
      change += delta_[pu] * (2 * loads[pu] + delta_[pu]);
      delta_[pu] = 0;
      touched_[pu] = 0;
    }
    list_.clear();
    return change;
  }

 private:
  std::vector<int64_t> delta_;
  std::vector<char> touched_;
  std::vector<int> list_;
};

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
  std::vector<int>& owner = *assignment;

  std::vector<int64_t> loads(static_cast<size_t>(num_nodes), 0);
  for (int64_t c = 0; c < n; ++c) {
    loads[static_cast<size_t>(owner[static_cast<size_t>(c)])] +=
        cell_weights[static_cast<size_t>(c)];
  }

  RebalanceResult result;
  result.spread_before = FindSpread(loads).gap;

  std::vector<int64_t> stride(static_cast<size_t>(k), 1);
  for (int d = k - 2; d >= 0; --d) {
    stride[static_cast<size_t>(d)] =
        stride[static_cast<size_t>(d + 1)] * dims[static_cast<size_t>(d + 1)];
  }
  const auto swappable = [&](int d) {
    return (restrict_to_dim < 0 || d == restrict_to_dim) &&
           dims[static_cast<size_t>(d)] >= 2;
  };

  // Per swappable dimension: the base (coordinate 0 in that dimension) of
  // every line, and a sparse line index over the fixed weights.
  // weighted[d][s]: the bases of the lines whose cell in slice s has
  // non-zero weight. A line where both cells of a candidate pair weigh zero
  // contributes no load delta, so scoring a pair over the union of its two
  // lists equals scoring it over every line. Dimensions above
  // kMaxCandidates slices also get an owner index of their heavy lines.
  constexpr int kMaxCandidates = 48;
  std::vector<std::vector<int64_t>> bases(static_cast<size_t>(k));
  std::vector<std::vector<std::vector<int64_t>>> weighted(
      static_cast<size_t>(k));
  std::vector<HeavyLines> heavy_lines(static_cast<size_t>(k));
  for (int d = 0; d < k; ++d) {
    if (!swappable(d)) continue;
    const auto du = static_cast<size_t>(d);
    const int nd = dims[du];
    bases[du].reserve(static_cast<size_t>(n / nd));
    for (int64_t outer = 0; outer < n; outer += stride[du] * nd) {
      for (int64_t inner = 0; inner < stride[du]; ++inner) {
        bases[du].push_back(outer + inner);
      }
    }
    weighted[du].resize(static_cast<size_t>(nd));
    std::vector<int64_t> heavy;
    for (int64_t c = 0; c < n; ++c) {
      const int64_t w = cell_weights[static_cast<size_t>(c)];
      if (w == 0) continue;
      const auto s = (c / stride[du]) % nd;
      const int64_t base = c - s * stride[du];
      weighted[du][static_cast<size_t>(s)].push_back(base);
      if (w > 0) heavy.push_back(base);
    }
    if (nd > kMaxCandidates) {
      std::sort(heavy.begin(), heavy.end());
      heavy.erase(std::unique(heavy.begin(), heavy.end()), heavy.end());
      heavy_lines[du] = HeavyLines(std::move(heavy), nd, stride[du],
                                   num_nodes, &cell_weights, &owner);
    }
  }

  // Swaps slices s1 and s2 of dimension d in every line and updates the
  // loads and the owner indexes: heavy lines along d trade empty slices or
  // are rebuilt, and heavy lines along any other dimension whose
  // coordinate in d is s1 or s2 changed owners wholesale and are rebuilt.
  std::vector<size_t> stale;
  const auto apply_swap = [&](size_t du, int s1, int s2) {
    stale.clear();
    for (size_t i = 0; i < heavy_lines[du].size(); ++i) {
      if (!heavy_lines[du].Trade(i, s1, s2)) stale.push_back(i);
    }
    const int64_t off1 = s1 * stride[du];
    const int64_t off2 = s2 * stride[du];
    for (int64_t base : bases[du]) {
      const auto c1 = static_cast<size_t>(base + off1);
      const auto c2 = static_cast<size_t>(base + off2);
      const int a1 = owner[c1];
      const int a2 = owner[c2];
      if (a1 == a2) continue;
      const int64_t w1 = cell_weights[c1];
      const int64_t w2 = cell_weights[c2];
      loads[static_cast<size_t>(a1)] += w2 - w1;
      loads[static_cast<size_t>(a2)] += w1 - w2;
      std::swap(owner[c1], owner[c2]);
    }
    for (size_t i : stale) heavy_lines[du].Rebuild(i);
    for (size_t eu = 0; eu < heavy_lines.size(); ++eu) {
      if (eu == du) continue;
      HeavyLines& hl = heavy_lines[eu];
      for (size_t i = 0; i < hl.size(); ++i) {
        const auto s = (hl.base(i) / stride[du]) % dims[du];
        if (s == s1 || s == s2) hl.Rebuild(i);
      }
    }
  };

  // Per-iteration scratch.
  constexpr size_t kMaxPairs = 4096;
  std::vector<std::pair<int, int>> pairs;
  std::vector<int> pair_start;
  std::vector<int> pair_second;
  PotentialChange change(num_nodes);
  LineTop top;

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
      if (!swappable(d)) continue;
      const auto du = static_cast<size_t>(d);
      const int nd = dims[du];
      // Scores swapping slices s1 < s2 of dimension d. Only a strictly
      // larger reduction than the best so far wins, so pairs are scored in
      // ascending (s1, s2) order.
      const auto score = [&](int s1, int s2) {
        const int64_t off1 = s1 * stride[du];
        const int64_t off2 = s2 * stride[du];
        const auto add_line = [&](int64_t base) {
          const auto c1 = static_cast<size_t>(base + off1);
          const auto c2 = static_cast<size_t>(base + off2);
          const int a1 = owner[c1];
          const int a2 = owner[c2];
          if (a1 == a2) return;
          const int64_t w1 = cell_weights[c1];
          const int64_t w2 = cell_weights[c2];
          if (w1 == w2) return;
          // After the swap, a1 owns c2's weight and a2 owns c1's.
          change.Add(a1, w2 - w1);
          change.Add(a2, w1 - w2);
        };
        // Each line of the union of the two slices' weighted lists, once:
        // s1's lines, then s2's lines whose s1 cell is empty (the others
        // are already in s1's list).
        for (int64_t base : weighted[du][static_cast<size_t>(s1)]) {
          add_line(base);
        }
        for (int64_t base : weighted[du][static_cast<size_t>(s2)]) {
          if (cell_weights[static_cast<size_t>(base + off1)] == 0) {
            add_line(base);
          }
        }
        const int64_t reduction = -change.Take(loads);
        if (reduction > best_reduction) {
          best_reduction = reduction;
          best_dim = d;
          best_s1 = s1;
          best_s2 = s2;
        }
      };
      // Candidate slice pairs. Small dimensions: all pairs. Large ones:
      // targeted pairs — for every line that contains both a weight-bearing
      // cell of the most-loaded processor and a cell of the least-loaded
      // one, swapping those two slices is guaranteed to move weight from
      // pmax toward pmin (the paper's "switch two rows or two columns to
      // reduce the weight difference between these two processors").
      if (nd <= kMaxCandidates) {
        for (int s1 = 0; s1 < nd; ++s1) {
          for (int s2 = s1 + 1; s2 < nd; ++s2) score(s1, s2);
        }
        continue;
      }
      // In each heavy line: weight-bearing cells with the most-loaded
      // owners, paired against the cells whose owners (after receiving that
      // weight) would be least loaded. Swapping such slices moves weight
      // downhill; several options per line keep the hill climb from
      // stalling in entangled local optima.
      pairs.clear();
      const HeavyLines& hl = heavy_lines[du];
      for (size_t i = 0; i < hl.size() && pairs.size() < kMaxPairs; ++i) {
        hl.Top(i, loads, &top);
        for (size_t hi = 0; hi < top.nh; ++hi) {
          for (size_t li = 0; li < top.nl; ++li) {
            const int s1 = top.heavy[hi].second;
            const int s2 = top.light[li].second;
            if (s1 == s2 || top.light[li].first >= top.heavy[hi].first) {
              continue;
            }
            pairs.emplace_back(std::min(s1, s2), std::max(s1, s2));
          }
        }
      }
      ForEachDistinctPair(pairs, nd, &pair_start, &pair_second, score);
    }
    if (best_dim < 0) break;

    const auto du = static_cast<size_t>(best_dim);
    apply_swap(du, best_s1, best_s2);
    ++result.swaps;

    // Hill climbing must make global progress; otherwise revert (the swap
    // is its own inverse) and stop.
    const int64_t new_potential = SumSquares(loads);
    if (new_potential >= potential) {
      apply_swap(du, best_s1, best_s2);
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
