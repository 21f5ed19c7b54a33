// MAGIC stops growing its grid file once the scales freeze (no dimension
// can take another cut under the directory-size cap) and computes every
// tuple's cell from the final scales. The reference here is the build it
// replaces, kept in the test: a grid file that inserts every tuple and
// reads each tuple's cell from its bucket with ForEachEntryCell. Scales,
// per-cell weights, per-cell processors and per-tuple homes must all be
// identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/decluster/assignment.h"
#include "src/decluster/magic.h"
#include "src/decluster/rebalance.h"
#include "src/grid/grid_file.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

namespace declust::decluster {
namespace {

using grid::GridFile;
using grid::GridFileOptions;
using SplitRule = GridFileOptions::SplitRule;

// `k` (2 or 3) attributes over [0, n): the first a random permutation, each
// other a copy of it with a (1 - correlation) share of positions reshuffled
// among themselves (the Wisconsin generator's construction, which gives the
// two-attribute relation).
storage::Relation Correlated(int k, double correlation, int64_t n,
                             uint64_t seed) {
  if (k == 2) {
    workload::WisconsinOptions o;
    o.cardinality = n;
    o.correlation = correlation;
    o.seed = seed;
    return workload::MakeWisconsin(o);
  }
  const char* const names[] = {"a", "b", "c"};
  std::vector<storage::AttributeDef> attrs;
  for (int d = 0; d < k; ++d) attrs.push_back({names[d]});
  storage::Relation rel("correlated", storage::Schema(attrs));
  RandomStream rng(seed);
  const std::vector<int64_t> base = rng.Permutation(n);
  std::vector<std::vector<Value>> cols(static_cast<size_t>(k), base);
  const auto moved =
      static_cast<int64_t>((1.0 - correlation) * static_cast<double>(n));
  for (int d = 1; d < k; ++d) {
    std::vector<int64_t> pos = rng.Permutation(n);
    pos.resize(static_cast<size_t>(moved));
    std::vector<Value> vals;
    for (int64_t p : pos) vals.push_back(base[static_cast<size_t>(p)]);
    rng.Shuffle(&vals);
    for (size_t i = 0; i < pos.size(); ++i) {
      cols[static_cast<size_t>(d)][static_cast<size_t>(pos[i])] = vals[i];
    }
  }
  std::vector<Value> row(static_cast<size_t>(k));
  for (int64_t i = 0; i < n; ++i) {
    for (int d = 0; d < k; ++d) {
      row[static_cast<size_t>(d)] =
          cols[static_cast<size_t>(d)][static_cast<size_t>(i)];
    }
    EXPECT_TRUE(rel.Append(row).ok());
  }
  return rel;
}

std::vector<Value> Point(const storage::Relation& rel, int k, int64_t i) {
  std::vector<Value> p(static_cast<size_t>(k));
  for (int d = 0; d < k; ++d) {
    p[static_cast<size_t>(d)] =
        rel.value(static_cast<RecordId>(i), static_cast<storage::AttrId>(d));
  }
  return p;
}

std::vector<std::vector<Value>> Cuts(const GridFile& g) {
  std::vector<std::vector<Value>> cuts;
  for (int d = 0; d < g.num_dims(); ++d) cuts.push_back(g.scale(d).cuts());
  return cuts;
}

// Every tuple's cell in a grid file holding all of them, read from the
// buckets the way MAGIC's build did.
std::vector<int64_t> EntryCells(const GridFile& g, int64_t n) {
  std::vector<int64_t> cells(static_cast<size_t>(n), -1);
  g.ForEachEntryCell([&](RecordId rid, int64_t cell) {
    cells[static_cast<size_t>(rid)] = cell;
  });
  return cells;
}

struct GridCase {
  int k;
  double correlation;
  SplitRule rule;
  int64_t max_cells;
};

std::string Name(const GridCase& c) {
  std::string name = "k";
  name += std::to_string(c.k);
  name += " corr ";
  name += std::to_string(c.correlation);
  name += c.rule == SplitRule::kMedian ? " median cap " : " buddy cap ";
  name += std::to_string(c.max_cells);
  return name;
}

std::vector<GridCase> GridCases() {
  std::vector<GridCase> cases;
  for (int k : {2, 3}) {
    for (double corr : {0.0, 0.5, 1.0}) {
      for (SplitRule rule : {SplitRule::kBuddyMidpoint, SplitRule::kMedian}) {
        for (int64_t cap : {int64_t{64}, int64_t{1} << 17}) {
          cases.push_back({k, corr, rule, cap});
        }
      }
    }
  }
  return cases;
}

GridFileOptions Options(const GridCase& c, int64_t n) {
  GridFileOptions o;
  o.bucket_capacity = 8;
  o.max_cells = c.max_cells;
  o.split_rule = c.rule;
  // Unequal weights give unequal slice counts, so the dimensions reach the
  // cap at different times.
  o.split_weights = {3.0, 1.0, 2.0};
  o.split_weights.resize(static_cast<size_t>(c.k));
  o.domain_lo.assign(static_cast<size_t>(c.k), 0);
  o.domain_hi.assign(static_cast<size_t>(c.k), n);
  return o;
}

TEST(GridFreezeTest, InsertsAfterTheFreezeMoveNoCut) {
  constexpr int64_t kN = 4000;
  int froze_early = 0;
  for (const GridCase& c : GridCases()) {
    SCOPED_TRACE(Name(c));
    const auto rel = Correlated(c.k, c.correlation, kN, 31);
    GridFile g(c.k, Options(c, kN));
    std::vector<std::vector<Value>> frozen_cuts;
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(g.Insert(Point(rel, c.k, i), static_cast<RecordId>(i)).ok());
      if (!frozen_cuts.empty()) {
        ASSERT_TRUE(g.ScalesFrozen()) << "thawed at insert " << i;
        ASSERT_EQ(Cuts(g), frozen_cuts) << "cut moved at insert " << i;
      } else if (g.ScalesFrozen()) {
        frozen_cuts = Cuts(g);
        if (i + 1 < kN) ++froze_early;
      }
    }
    EXPECT_TRUE(g.Validate().ok());
  }
  // The small cap freezes every case long before the last insert.
  EXPECT_GE(froze_early, 12);
}

TEST(GridFreezeTest, CellsFromFrozenScalesMatchAFullInsert) {
  constexpr int64_t kN = 4000;
  for (const GridCase& c : GridCases()) {
    SCOPED_TRACE(Name(c));
    const auto rel = Correlated(c.k, c.correlation, kN, 37);
    GridFile full(c.k, Options(c, kN));
    GridFile stopped(c.k, Options(c, kN));
    for (int64_t i = 0; i < kN; ++i) {
      const auto rid = static_cast<RecordId>(i);
      ASSERT_TRUE(full.Insert(Point(rel, c.k, i), rid).ok());
      if (!stopped.ScalesFrozen()) {
        ASSERT_TRUE(stopped.Insert(Point(rel, c.k, i), rid).ok());
      }
    }
    ASSERT_EQ(Cuts(stopped), Cuts(full));
    const std::vector<int64_t> want = EntryCells(full, kN);
    for (int64_t i = 0; i < kN; ++i) {
      const auto cell = stopped.CellOfPoint(Point(rel, c.k, i));
      ASSERT_TRUE(cell.ok());
      ASSERT_EQ(*cell, want[static_cast<size_t>(i)]) << "tuple " << i;
    }
  }
}

// A workload with one query class per attribute.
workload::Workload Workload(int k) {
  if (k == 2) {
    return workload::MakeMix(workload::ResourceClass::kLow,
                             workload::ResourceClass::kModerate);
  }
  workload::Workload wl;
  const double declared_ms[] = {18.0, 50.0, 8.0};
  for (int d = 0; d < k; ++d) {
    workload::QueryClassSpec q;
    q.attr = d;
    q.tuples = 10 * (d + 1);
    q.frequency = 1.0 / k;
    q.declared_cpu_ms = declared_ms[d];
    wl.classes.push_back(q);
  }
  return wl;
}

struct MagicCase {
  int k;
  double correlation;
  int64_t cells_factor;
  bool rebalance;
};

// gtest prints a parameter into the discovered test name; without this it
// dumps the struct's raw bytes, padding included.
void PrintTo(const MagicCase& c, std::ostream* os) {
  *os << "k=" << c.k << " correlation=" << c.correlation
      << " factor=" << c.cells_factor << " rebalance=" << c.rebalance;
}

class MagicFreezeTest : public ::testing::TestWithParam<MagicCase> {};

TEST_P(MagicFreezeTest, MatchesAFullInsertReference) {
  const MagicCase c = GetParam();
  constexpr int64_t kN = 12000;
  constexpr int kNodes = 16;
  const auto rel = Correlated(c.k, c.correlation, kN, 41);
  const auto wl = Workload(c.k);
  std::vector<storage::AttrId> attrs;
  for (int d = 0; d < c.k; ++d) attrs.push_back(d);
  MagicOptions opts;
  opts.max_grid_cells_factor = c.cells_factor;
  opts.rebalance = c.rebalance;
  auto part = MagicPartitioning::Create(rel, attrs, wl, kNodes, opts);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  const MagicPartitioning& magic = **part;

  // The reference: the same grid-file options, every tuple inserted.
  const MagicPlan& plan = magic.plan();
  GridFileOptions gopts;
  gopts.bucket_capacity =
      static_cast<int>(std::max<int64_t>(2, plan.fragment_cardinality));
  gopts.split_weights = plan.fraction_splits;
  gopts.max_cells = std::max<int64_t>(
      4096, c.cells_factor * kN /
                std::max<int64_t>(1, plan.fragment_cardinality));
  for (storage::AttrId a : attrs) {
    auto range = rel.AttrRange(a);
    ASSERT_TRUE(range.ok());
    gopts.domain_lo.push_back(range->first);
    gopts.domain_hi.push_back(range->second + 1);
  }
  GridFile full(c.k, gopts);
  int64_t frozen_at = kN;
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(full.Insert(Point(rel, c.k, i), static_cast<RecordId>(i)).ok());
    if (frozen_at == kN && full.ScalesFrozen()) frozen_at = i + 1;
  }
  const std::vector<int64_t> cells = EntryCells(full, kN);
  const grid::GridDirectory& dir = full.directory();
  std::vector<int64_t> weights(static_cast<size_t>(dir.num_cells()), 0);
  for (int64_t cell : cells) ++weights[static_cast<size_t>(cell)];

  // Correlated data freezes the scales early under any cap. Uncorrelated
  // data freezes only under the small one, and only with three attributes,
  // whose directory outgrows the cap's 4096-cell floor; with two it never
  // freezes and MAGIC inserts every tuple.
  const bool freezes = c.correlation > 0 || (c.k == 3 && c.cells_factor == 1);
  EXPECT_EQ(frozen_at < kN, freezes)
      << full.ShapeString() << " froze after " << frozen_at << " tuples";
  for (int d = 0; d < c.k; ++d) {
    ASSERT_EQ(magic.scale(d).cuts(), full.scale(d).cuts()) << "dim " << d;
  }
  ASSERT_EQ(magic.dims(), dir.dims());
  ASSERT_EQ(magic.num_cells(), dir.num_cells());
  EXPECT_EQ(magic.ShapeString(), full.ShapeString());
  ASSERT_EQ(magic.cell_weights(), weights);

  // The assignment is a function of the shape and the weights: the tiled
  // assignment, or with the rebalancer one of its two hill-climb variants.
  auto tiled = TiledAssignment(dir.dims(), kNodes, plan.mi);
  ASSERT_TRUE(tiled.ok());
  std::vector<std::vector<int>> candidates = {*tiled};
  if (c.rebalance) {
    const int coarse = static_cast<int>(
        std::min_element(dir.dims().begin(), dir.dims().end()) -
        dir.dims().begin());
    for (int restrict_dim : {coarse, -1}) {
      std::vector<int> climbed = *tiled;
      HillClimbRebalance(dir.dims(), weights, kNodes, &climbed,
                         opts.max_rebalance_swaps, restrict_dim);
      candidates.push_back(std::move(climbed));
    }
  }
  EXPECT_NE(std::find(candidates.begin(), candidates.end(),
                      magic.cell_nodes()),
            candidates.end());

  for (int64_t i = 0; i < kN; ++i) {
    const auto rid = static_cast<RecordId>(i);
    ASSERT_EQ(magic.NodeOf(rid),
              magic.cell_nodes()[static_cast<size_t>(cells[rid])])
        << "tuple " << i;
  }
}

std::vector<MagicCase> MagicCases() {
  std::vector<MagicCase> cases;
  for (int k : {2, 3}) {
    for (double corr : {0.0, 0.5, 1.0}) {
      for (int64_t factor : {int64_t{8}, int64_t{1}}) {
        for (bool rebalance : {false, true}) {
          cases.push_back({k, corr, factor, rebalance});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    CorrelationArityCapRebalance, MagicFreezeTest,
    ::testing::ValuesIn(MagicCases()),
    [](const ::testing::TestParamInfo<MagicCase>& info) {
      const MagicCase& c = info.param;
      std::string name = "k";
      name += std::to_string(c.k);
      name += "_corr";
      name += std::to_string(static_cast<int>(c.correlation * 10));
      name += "_factor";
      name += std::to_string(c.cells_factor);
      name += c.rebalance ? "_rebalanced" : "_tiled";
      return name;
    });

}  // namespace
}  // namespace declust::decluster
