#include "src/grid/linear_scale.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/common/random.h"

namespace declust::grid {
namespace {

TEST(LinearScaleTest, EmptyScaleIsOneSlice) {
  LinearScale s;
  EXPECT_EQ(s.num_slices(), 1);
  EXPECT_EQ(s.SliceOf(-1000), 0);
  EXPECT_EQ(s.SliceOf(0), 0);
  EXPECT_EQ(s.SliceOf(1000), 0);
}

TEST(LinearScaleTest, SliceOfRespectsHalfOpenIntervals) {
  LinearScale s;
  ASSERT_TRUE(s.AddCut(10).ok());
  ASSERT_TRUE(s.AddCut(20).ok());
  EXPECT_EQ(s.num_slices(), 3);
  EXPECT_EQ(s.SliceOf(9), 0);
  EXPECT_EQ(s.SliceOf(10), 1);  // cut belongs to the right slice
  EXPECT_EQ(s.SliceOf(19), 1);
  EXPECT_EQ(s.SliceOf(20), 2);
  EXPECT_EQ(s.SliceOf(1000), 2);
}

TEST(LinearScaleTest, AddCutReturnsSplitSlice) {
  LinearScale s;
  auto r1 = s.AddCut(100);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(*r1, 0);
  auto r2 = s.AddCut(50);  // splits slice 0
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, 0);
  auto r3 = s.AddCut(200);  // splits the last slice (index 2)
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(*r3, 2);
  auto dup = s.AddCut(50);
  EXPECT_TRUE(dup.status().IsAlreadyExists());
}

TEST(LinearScaleTest, SliceBounds) {
  LinearScale s;
  ASSERT_TRUE(s.AddCut(10).ok());
  ASSERT_TRUE(s.AddCut(20).ok());
  auto [lo0, hi0] = s.SliceBounds(0);
  EXPECT_EQ(hi0, 10);
  auto [lo1, hi1] = s.SliceBounds(1);
  EXPECT_EQ(lo1, 10);
  EXPECT_EQ(hi1, 20);
  auto [lo2, hi2] = s.SliceBounds(2);
  EXPECT_EQ(lo2, 20);
  EXPECT_GT(hi2, 1000000);
}

TEST(LinearScaleTest, SlicesOverlapping) {
  LinearScale s;
  ASSERT_TRUE(s.AddCut(10).ok());
  ASSERT_TRUE(s.AddCut(20).ok());
  ASSERT_TRUE(s.AddCut(30).ok());
  auto [a, b] = s.SlicesOverlapping(12, 25);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  auto [c, d] = s.SlicesOverlapping(15, 15);
  EXPECT_EQ(c, 1);
  EXPECT_EQ(d, 1);
}

TEST(LinearScaleTest, SliceOfCountsCutsAtOrBelowTheValue) {
  // The branch-free search against std::upper_bound on scales of every
  // size up to 70 cuts, probing each cut, its neighbours and the extremes.
  RandomStream rng(31);
  for (int size = 0; size <= 70; ++size) {
    LinearScale s;
    while (static_cast<int>(s.cuts().size()) < size) {
      (void)s.AddCut(rng.UniformInt(-500, 500));
    }
    const std::vector<Value>& cuts = s.cuts();
    std::vector<Value> probes = {std::numeric_limits<Value>::min(),
                                 std::numeric_limits<Value>::max(), -501,
                                 501};
    for (Value c : cuts) probes.insert(probes.end(), {c - 1, c, c + 1});
    for (Value v : probes) {
      const auto want = std::upper_bound(cuts.begin(), cuts.end(), v) -
                        cuts.begin();
      EXPECT_EQ(s.SliceOf(v), want) << "size " << size << " value " << v;
    }
  }
}

}  // namespace
}  // namespace declust::grid
