// Parameterized property sweep over the grid file: structural invariants
// must hold across bucket capacities, split rules, dimensionalities and
// data distributions.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>
#include <vector>

#include "src/common/random.h"
#include "src/grid/grid_file.h"
#include "src/workload/wisconsin.h"
#include "tests/grid/dense_grid_reference.h"

namespace declust::grid {
namespace {

struct Param {
  int capacity;
  GridFileOptions::SplitRule rule;
  int dims;
  double correlation;  // 0 = independent, 1 = identical values
};

std::string ParamName(const ::testing::TestParamInfo<Param>& info) {
  std::string s = "cap" + std::to_string(info.param.capacity);
  s += info.param.rule == GridFileOptions::SplitRule::kBuddyMidpoint
           ? "_buddy"
           : "_median";
  s += "_k" + std::to_string(info.param.dims);
  s += info.param.correlation >= 0.5 ? "_diag" : "_unif";
  return s;
}

class GridFileProperty : public ::testing::TestWithParam<Param> {
 protected:
  static constexpr int kPoints = 3000;
  static constexpr Value kDomain = 10'000;

  void SetUp() override {
    const Param& p = GetParam();
    GridFileOptions o;
    o.bucket_capacity = p.capacity;
    o.split_rule = p.rule;
    o.max_cells = 1 << 16;
    o.domain_lo.assign(static_cast<size_t>(p.dims), 0);
    o.domain_hi.assign(static_cast<size_t>(p.dims), kDomain);
    options_ = o;
    grid_ = std::make_unique<GridFile>(p.dims, o);

    RandomStream rng(1234);
    points_.reserve(kPoints);
    for (int i = 0; i < kPoints; ++i) {
      std::vector<Value> pt(static_cast<size_t>(p.dims));
      pt[0] = rng.UniformInt(0, kDomain - 1);
      for (int d = 1; d < p.dims; ++d) {
        pt[static_cast<size_t>(d)] = p.correlation >= 0.5
                                         ? pt[0]
                                         : rng.UniformInt(0, kDomain - 1);
      }
      ASSERT_TRUE(
          grid_->Insert(pt, static_cast<storage::RecordId>(i)).ok());
      points_.push_back(std::move(pt));
    }
  }

  GridFileOptions options_;
  std::unique_ptr<GridFile> grid_;
  std::vector<std::vector<Value>> points_;
};

// The grid file grows a slot-mapped directory and materializes it once; the
// dense reference re-lays out the whole directory on every cut. Both must
// end with the same scales, directory and bucket boxes.
void ExpectMatchesDenseReference(const GridFile& grid,
                                 const reference::DenseGridFile& want) {
  for (int d = 0; d < grid.num_dims(); ++d) {
    EXPECT_EQ(grid.scale(d).cuts(), want.scale(d).cuts()) << "dim " << d;
  }
  const GridDirectory& dir = grid.directory();
  ASSERT_EQ(dir.dims(), want.directory().dims());
  for (int64_t c = 0; c < dir.num_cells(); ++c) {
    ASSERT_EQ(dir.bucket_at_index(c), want.directory().bucket_at_index(c))
        << "cell " << c;
  }
  ASSERT_EQ(grid.num_buckets(), want.num_buckets());
  for (int b = 0; b < grid.num_buckets(); ++b) {
    EXPECT_EQ(grid.BucketBox(b), want.BucketBox(b)) << "bucket " << b;
  }
}

TEST_P(GridFileProperty, StructuralInvariantsHold) {
  EXPECT_TRUE(grid_->Validate().ok());
  EXPECT_EQ(grid_->size(), kPoints);
  EXPECT_LE(grid_->directory().num_cells(), 1 << 16);
}

TEST_P(GridFileProperty, DirectoryAndBoxesMatchDenseReference) {
  reference::DenseGridFile want(GetParam().dims, options_);
  for (size_t i = 0; i < points_.size(); ++i) {
    ASSERT_TRUE(
        want.Insert(points_[i], static_cast<storage::RecordId>(i)).ok());
  }
  ExpectMatchesDenseReference(*grid_, want);
}

TEST(GridFileReferenceTest, CorrelatedHalfMillionMatchesDenseReference) {
  // MAGIC's grid on 500k correlated Wisconsin tuples over 128 processors:
  // fragment cardinality 48, equal split weights, the directory cap MAGIC
  // derives (8x the ideal fragment count), 289x288 cells in the end.
  workload::WisconsinOptions w;
  w.cardinality = 500'000;
  w.correlation = 1.0;
  w.seed = 7;
  const storage::Relation rel = workload::MakeWisconsin(w);
  GridFileOptions o;
  o.bucket_capacity = 48;
  o.split_weights = {0.25, 0.25};
  o.max_cells = 8 * w.cardinality / 48;
  o.domain_lo = {0, 0};
  o.domain_hi = {w.cardinality, w.cardinality};
  GridFile got(2, o);
  reference::DenseGridFile want(2, o);
  for (int64_t i = 0; i < w.cardinality; ++i) {
    const auto rid = static_cast<storage::RecordId>(i);
    const std::vector<Value> point = {
        rel.value(rid, workload::WisconsinAttrs::kUnique1),
        rel.value(rid, workload::WisconsinAttrs::kUnique2)};
    ASSERT_TRUE(got.Insert(point, rid).ok());
    ASSERT_TRUE(want.Insert(point, rid).ok());
  }
  EXPECT_EQ(got.ShapeString(), "289x288");
  ExpectMatchesDenseReference(got, want);
}

TEST_P(GridFileProperty, InterleavedReadsMatchDenseReference) {
  // Reading the directory between inserts materializes it and releases the
  // slot-mapped form; the next insert re-seeds it from the materialized
  // directory. Growth must continue exactly as without the reads.
  GridFile got(GetParam().dims, options_);
  reference::DenseGridFile want(GetParam().dims, options_);
  for (size_t i = 0; i < points_.size(); ++i) {
    const auto rid = static_cast<storage::RecordId>(i);
    ASSERT_TRUE(got.Insert(points_[i], rid).ok());
    ASSERT_TRUE(want.Insert(points_[i], rid).ok());
    if (i % 397 == 0) {
      EXPECT_EQ(got.directory().dims(), want.directory().dims());
    }
  }
  ExpectMatchesDenseReference(got, want);
}

TEST_P(GridFileProperty, CellOfPointRejectsWrongArity) {
  const int k = GetParam().dims;
  for (const int arity : {k - 1, k + 1}) {
    const std::vector<Value> point(static_cast<size_t>(arity), 5);
    const auto cell = grid_->CellOfPoint(point);
    ASSERT_FALSE(cell.ok()) << "arity " << arity;
    EXPECT_TRUE(cell.status().IsInvalidArgument());
  }
}

TEST_P(GridFileProperty, EveryPointFindable) {
  for (size_t i = 0; i < points_.size(); ++i) {
    const auto rids = grid_->PointSearch(points_[i]);
    EXPECT_NE(std::find(rids.begin(), rids.end(),
                        static_cast<storage::RecordId>(i)),
              rids.end())
        << "point " << i;
  }
}

TEST_P(GridFileProperty, HistogramSumsToSize) {
  const auto hist = grid_->CellHistogram();
  EXPECT_EQ(std::accumulate(hist.begin(), hist.end(), int64_t{0}), kPoints);
}

TEST_P(GridFileProperty, CellOfPointConsistentWithHistogram) {
  std::vector<int64_t> counted(
      static_cast<size_t>(grid_->directory().num_cells()), 0);
  for (const auto& pt : points_) {
    const auto cell = grid_->CellOfPoint(pt);
    ASSERT_TRUE(cell.ok());
    ++counted[static_cast<size_t>(*cell)];
  }
  EXPECT_EQ(counted, grid_->CellHistogram());
}

TEST_P(GridFileProperty, ForEachEntryCellMatchesCellOfPoint) {
  std::vector<int> visits(points_.size(), 0);
  grid_->ForEachEntryCell([&](storage::RecordId rid, int64_t cell) {
    ASSERT_LT(rid, points_.size());
    ++visits[rid];
    const auto want = grid_->CellOfPoint(points_[rid]);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(cell, *want) << "rid " << rid;
  });
  EXPECT_EQ(visits, std::vector<int>(points_.size(), 1));
}

TEST_P(GridFileProperty, BoxQueryFindsEverythingInBox) {
  RandomStream rng(77);
  const int k = GetParam().dims;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<Value> lo(static_cast<size_t>(k)), hi(static_cast<size_t>(k));
    for (int d = 0; d < k; ++d) {
      const Value a = rng.UniformInt(0, kDomain - 1);
      lo[static_cast<size_t>(d)] = a;
      hi[static_cast<size_t>(d)] = a + rng.UniformInt(0, kDomain / 4);
    }
    // Collect rids via the cell route.
    std::set<storage::RecordId> found;
    for (int64_t cell : grid_->CellsOverlapping(lo, hi)) {
      for (const auto& e : grid_->EntriesInCell(cell)) {
        found.insert(e.rid);
      }
    }
    // Reference scan.
    for (size_t i = 0; i < points_.size(); ++i) {
      bool inside = true;
      for (int d = 0; d < k; ++d) {
        const Value v = points_[i][static_cast<size_t>(d)];
        if (v < lo[static_cast<size_t>(d)] || v > hi[static_cast<size_t>(d)]) {
          inside = false;
          break;
        }
      }
      if (inside) {
        EXPECT_TRUE(found.count(static_cast<storage::RecordId>(i)))
            << "trial " << trial << " point " << i;
      }
    }
  }
}

// The allocation-free box walk visits exactly CellsOverlapping's cells in
// its order, and both equal a brute-force scan of the directory: every cell
// (in increasing linear index) whose slice coordinates fall inside the
// slices the box overlaps on each dimension.
TEST_P(GridFileProperty, ForEachCellOverlappingVisitsCellsOverlappingSequence) {
  RandomStream rng(91);
  const int k = GetParam().dims;
  const auto ku = static_cast<size_t>(k);
  const GridDirectory& dir = grid_->directory();
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Value> lo(ku), hi(ku);
    for (size_t d = 0; d < ku; ++d) {
      // Unbounded, point, ranged and (rarely) inverted boxes.
      switch (rng.UniformInt(0, 5)) {
        case 0:
          lo[d] = std::numeric_limits<Value>::min();
          hi[d] = std::numeric_limits<Value>::max();
          break;
        case 1:
          lo[d] = hi[d] = rng.UniformInt(-10, kDomain + 10);
          break;
        case 2:
          lo[d] = rng.UniformInt(0, kDomain - 1);
          hi[d] = lo[d] - 1;
          break;
        default:
          lo[d] = rng.UniformInt(-100, kDomain - 1);
          hi[d] = lo[d] + rng.UniformInt(0, kDomain / 3);
      }
    }
    std::vector<int64_t> visited;
    grid_->ForEachCellOverlapping(
        lo, hi, [&visited](int64_t cell) { visited.push_back(cell); });
    EXPECT_EQ(visited, grid_->CellsOverlapping(lo, hi)) << "trial " << trial;

    std::vector<int64_t> scanned;
    bool empty_box = false;
    for (size_t d = 0; d < ku; ++d) empty_box |= lo[d] > hi[d];
    for (int64_t cell = 0; !empty_box && cell < dir.num_cells(); ++cell) {
      const std::vector<int> coords = dir.CellCoords(cell);
      bool inside = true;
      for (int d = 0; d < k; ++d) {
        const auto du = static_cast<size_t>(d);
        const auto [first, last] =
            grid_->scale(d).SlicesOverlapping(lo[du], hi[du]);
        inside &= coords[du] >= first && coords[du] <= last;
      }
      if (inside) scanned.push_back(cell);
    }
    EXPECT_EQ(visited, scanned) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GridFileProperty,
    ::testing::Values(
        Param{8, GridFileOptions::SplitRule::kBuddyMidpoint, 2, 0.0},
        Param{8, GridFileOptions::SplitRule::kMedian, 2, 0.0},
        Param{32, GridFileOptions::SplitRule::kBuddyMidpoint, 2, 0.0},
        Param{32, GridFileOptions::SplitRule::kMedian, 2, 1.0},
        Param{8, GridFileOptions::SplitRule::kBuddyMidpoint, 2, 1.0},
        Param{16, GridFileOptions::SplitRule::kBuddyMidpoint, 3, 0.0},
        Param{16, GridFileOptions::SplitRule::kMedian, 3, 1.0},
        Param{64, GridFileOptions::SplitRule::kBuddyMidpoint, 1, 0.0}),
    ParamName);

}  // namespace
}  // namespace declust::grid
