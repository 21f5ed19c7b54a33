#include "src/grid/grid_directory.h"

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "tests/grid/dense_grid_reference.h"

namespace declust::grid {
namespace {

using reference::DenseDirectory;

// Row-major bucket ids of both directories, which must have the same shape.
void ExpectSameCells(const DenseDirectory& want, const GridDirectory& got) {
  ASSERT_EQ(got.dims(), want.dims());
  for (int64_t c = 0; c < want.num_cells(); ++c) {
    EXPECT_EQ(got.bucket_at_index(c), want.bucket_at_index(c)) << "cell " << c;
  }
}

TEST(GridDirectoryTest, StartsAsSingleCell) {
  GridDirectory d(2);
  EXPECT_EQ(d.num_dims(), 2);
  EXPECT_EQ(d.size(0), 1);
  EXPECT_EQ(d.size(1), 1);
  EXPECT_EQ(d.num_cells(), 1);
  EXPECT_EQ(d.bucket_at({0, 0}), 0);
}

TEST(GridDirectoryTest, CellIndexRoundTrips) {
  SlotDirectory s{GridDirectory(3)};
  s.DuplicateSlice(0, 0);
  s.DuplicateSlice(1, 0);
  s.DuplicateSlice(1, 0);
  s.DuplicateSlice(2, 0);
  const GridDirectory d = s.Materialize();
  // dims: 2 x 3 x 2
  EXPECT_EQ(d.size(0), 2);
  EXPECT_EQ(d.size(1), 3);
  EXPECT_EQ(d.size(2), 2);
  for (int64_t i = 0; i < d.num_cells(); ++i) {
    EXPECT_EQ(d.CellIndex(d.CellCoords(i)), i);
  }
}

TEST(GridDirectoryTest, DuplicateSliceCopiesBuckets) {
  DenseDirectory d(2);
  SlotDirectory s{GridDirectory(2)};
  d.DuplicateSlice(0, 0);  // 2x1
  s.DuplicateSlice(0, 0);
  for (const auto& [coords, bucket] :
       {std::pair<std::array<int, 2>, int>{{0, 0}, 7}, {{1, 0}, 9}}) {
    d.set_bucket({coords[0], coords[1]}, bucket);
    s.set_bucket(s.Offset(coords.data()), bucket);
  }
  d.DuplicateSlice(1, 0);  // 2x2: column copied
  s.DuplicateSlice(1, 0);
  EXPECT_EQ(d.bucket_at({0, 0}), 7);
  EXPECT_EQ(d.bucket_at({0, 1}), 7);
  EXPECT_EQ(d.bucket_at({1, 0}), 9);
  EXPECT_EQ(d.bucket_at({1, 1}), 9);
  ExpectSameCells(d, s.Materialize());
}

TEST(GridDirectoryTest, DuplicateMiddleSliceShiftsLaterSlices) {
  DenseDirectory d(1);
  SlotDirectory s{GridDirectory(1)};
  d.DuplicateSlice(0, 0);  // 2
  s.DuplicateSlice(0, 0);
  for (int slice : {0, 1}) {
    d.set_bucket({slice}, slice + 1);
    s.set_bucket(s.Offset(&slice), slice + 1);
  }
  d.DuplicateSlice(0, 0);  // slice 0 split: [1, 1, 2]
  s.DuplicateSlice(0, 0);
  EXPECT_EQ(d.size(0), 3);
  EXPECT_EQ(d.bucket_at({0}), 1);
  EXPECT_EQ(d.bucket_at({1}), 1);
  EXPECT_EQ(d.bucket_at({2}), 2);
  ExpectSameCells(d, s.Materialize());
  d.DuplicateSlice(0, 2);  // slice 2 split: [1, 1, 2, 2]
  s.DuplicateSlice(0, 2);
  EXPECT_EQ(d.bucket_at({3}), 2);
  ExpectSameCells(d, s.Materialize());
}

TEST(GridDirectoryTest, SetBucketAtIndex) {
  GridDirectory d({2, 2}, {0, 0, 0, 0});
  d.set_bucket_at_index(3, 42);
  EXPECT_EQ(d.bucket_at({1, 1}), 42);
  EXPECT_EQ(d.bucket_at_index(3), 42);
}

TEST(GridDirectoryTest, SlotDirectoryMatchesDenseDuplication) {
  // Random slice splits and bucket writes, 1-D to 4-D, through several
  // capacity doublings: the slot-mapped directory materializes to the same
  // cells as the dense one at every step, and survives a round trip
  // through its row-major form.
  RandomStream rng(2026);
  for (int k = 1; k <= 4; ++k) {
    DenseDirectory d(k);
    SlotDirectory s{GridDirectory(k)};
    int next_bucket = 1;
    for (int step = 0; step < 60; ++step) {
      const int dim = static_cast<int>(rng.UniformInt(0, k - 1));
      if (d.size(dim) < (k == 1 ? 70 : 24 / k + 2)) {
        const int slice = static_cast<int>(rng.UniformInt(0, d.size(dim) - 1));
        d.DuplicateSlice(dim, slice);
        s.DuplicateSlice(dim, slice);
      }
      std::vector<int> coords(static_cast<size_t>(k));
      for (int e = 0; e < k; ++e) {
        coords[static_cast<size_t>(e)] =
            static_cast<int>(rng.UniformInt(0, d.size(e) - 1));
      }
      d.set_bucket(coords, next_bucket);
      s.set_bucket(s.Offset(coords.data()), next_bucket);
      ++next_bucket;
      ASSERT_EQ(s.num_cells(), d.num_cells());
      ExpectSameCells(d, s.Materialize());
      if (step % 20 == 19) s = SlotDirectory(s.Materialize());
    }
  }
}

}  // namespace
}  // namespace declust::grid
