#include "src/storage/btree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "src/common/random.h"

namespace declust::storage {
namespace {

// Bulk-loads entries in any order: a stable sort on the key keeps equal
// keys in the order given, as inserting them one by one would.
BPlusTree Load(std::vector<BTreeEntry> entries, int fanout) {
  std::ranges::stable_sort(entries, {}, &BTreeEntry::key);
  return BPlusTree::BulkLoad(entries, fanout);
}

std::vector<RecordId> Rids(const EntryRange& entries) {
  std::vector<RecordId> rids;
  for (const BTreeEntry& e : entries) rids.push_back(e.rid);
  return rids;
}

TEST(BTreeTest, EmptyTree) {
  const BPlusTree t = Load({}, 8);
  EXPECT_EQ(t.size(), 0);
  EXPECT_EQ(t.height(), 0);
  EXPECT_EQ(t.leaf_count(), 1);
  EXPECT_EQ(t.node_count(), 1);
  EXPECT_TRUE(t.Range(5, 5).empty());
  EXPECT_TRUE(t.Range(0, 100).empty());
  EXPECT_EQ(t.LeafPagesTouched(0, 100), 0);
  EXPECT_EQ(BPlusTree().node_count(), BPlusTree::BulkLoadNodeCount(0, 8));
}

TEST(BTreeTest, SingleInsertAndSearch) {
  const BPlusTree t = Load({{42, 7}}, 8);
  EXPECT_EQ(t.size(), 1);
  EXPECT_EQ(t.height(), 1);
  EXPECT_EQ(Rids(t.Range(42, 42)), std::vector<RecordId>{7});
  EXPECT_TRUE(t.Range(41, 41).empty());
}

TEST(BTreeTest, SequentialInsertsSplitCorrectly) {
  std::vector<BTreeEntry> entries;
  for (int i = 0; i < 100; ++i) entries.push_back({i, static_cast<RecordId>(i)});
  const BPlusTree t = Load(entries, 4);
  EXPECT_EQ(t.size(), 100);
  EXPECT_GT(t.height(), 2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(Rids(t.Range(i, i)), std::vector<RecordId>{static_cast<RecordId>(i)})
        << "key " << i;
  }
}

TEST(BTreeTest, ReverseInsertsSplitCorrectly) {
  std::vector<BTreeEntry> entries;
  for (int i = 99; i >= 0; --i) entries.push_back({i, static_cast<RecordId>(i)});
  const BPlusTree t = Load(entries, 4);
  const auto all = t.Range(0, 99);
  ASSERT_EQ(all.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(all.key(static_cast<size_t>(i)), i);
}

TEST(BTreeTest, DuplicateKeysAllFound) {
  // A run of duplicates longer than a leaf straddles leaf boundaries; the
  // run keeps its input order.
  std::vector<BTreeEntry> entries;
  std::vector<RecordId> sevens;
  for (int i = 0; i < 50; ++i) {
    entries.push_back({7, static_cast<RecordId>(49 - i)});
    sevens.push_back(static_cast<RecordId>(49 - i));
  }
  entries.push_back({3, 1000});
  entries.push_back({11, 2000});
  const BPlusTree t = Load(entries, 4);
  EXPECT_EQ(Rids(t.Range(7, 7)), sevens);
  EXPECT_EQ(t.Range(3, 3).size(), 1u);
  EXPECT_EQ(t.Range(11, 11).size(), 1u);
}

TEST(BTreeTest, RangeSearchBoundsInclusive) {
  std::vector<BTreeEntry> entries;
  for (int i = 0; i < 100; i += 2) entries.push_back({i, static_cast<RecordId>(i)});
  const BPlusTree t = Load(entries, 8);
  auto r = t.Range(10, 20);
  ASSERT_EQ(r.size(), 6u);  // 10,12,14,16,18,20
  EXPECT_EQ(r.key(0), 10);
  EXPECT_EQ(r.key(r.size() - 1), 20);
  // Bounds that fall between keys.
  r = t.Range(11, 19);
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r.key(0), 12);
  EXPECT_EQ(r.key(r.size() - 1), 18);
  // Empty range.
  EXPECT_TRUE(t.Range(200, 300).empty());
  EXPECT_TRUE(t.Range(20, 10).empty());
}

TEST(BTreeTest, BulkLoadMatchesInserted) {
  std::vector<BTreeEntry> entries;
  for (int i = 0; i < 1000; ++i) {
    entries.push_back({i * 3, static_cast<RecordId>(i)});
  }
  const BPlusTree t = BPlusTree::BulkLoad(entries, 16);
  EXPECT_EQ(t.size(), 1000);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(Rids(t.Range(i * 3, i * 3)),
              std::vector<RecordId>{static_cast<RecordId>(i)});
  }
  EXPECT_TRUE(t.Range(1, 1).empty());
  // The same entries in arrival order build the same tree.
  std::shuffle(entries.begin(), entries.end(), std::mt19937(1));
  const BPlusTree shuffled = Load(entries, 16);
  EXPECT_TRUE(std::ranges::equal(shuffled.Range(0, 3000), t.Range(0, 3000)));
  EXPECT_EQ(shuffled.node_count(), t.node_count());
}

TEST(BTreeTest, BulkLoadThenInsert) {
  std::vector<BTreeEntry> entries;
  for (int i = 0; i < 500; ++i) entries.push_back({i * 2, static_cast<RecordId>(i)});
  for (int i = 0; i < 500; ++i) {
    entries.push_back({i * 2 + 1, static_cast<RecordId>(1000 + i)});
  }
  const BPlusTree t = Load(entries, 8);
  EXPECT_EQ(t.size(), 1000);
  const auto all = t.Range(0, 1000);
  EXPECT_EQ(all.size(), 1000u);
  EXPECT_TRUE(std::ranges::is_sorted(all, {}, &BTreeEntry::key));
}

TEST(BTreeTest, HeightGrowsLogarithmically) {
  std::vector<BTreeEntry> entries;
  for (int i = 0; i < 90; ++i) entries.push_back({i, 0});
  EXPECT_EQ(Load(entries, 100).height(), 1);
  for (int i = 90; i < 10000; ++i) entries.push_back({i, 0});
  EXPECT_LE(Load(entries, 100).height(), 3);
}

TEST(BTreeTest, LeafPagesTouchedTracksRangeWidth) {
  std::vector<BTreeEntry> entries;
  for (int i = 0; i < 10000; ++i) entries.push_back({i, static_cast<RecordId>(i)});
  const BPlusTree t = BPlusTree::BulkLoad(entries, 100);
  const int64_t narrow = t.LeafPagesTouched(500, 510);
  const int64_t wide = t.LeafPagesTouched(500, 5000);
  EXPECT_GE(narrow, 1);
  EXPECT_LE(narrow, 2);
  EXPECT_GT(wide, 40);  // ~4500 entries / 90 per leaf = 50 leaves
  EXPECT_LT(wide, 60);
}

TEST(BTreeTest, MoveSemantics) {
  BPlusTree a = Load({{1, 10}}, 8);
  const BPlusTree b = std::move(a);
  EXPECT_EQ(b.size(), 1);
  EXPECT_EQ(Rids(b.Range(1, 1)), std::vector<RecordId>{10});
}

class BTreeRandomized : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BTreeRandomized, MatchesReferenceMultimap) {
  const int fanout = std::get<0>(GetParam());
  const int n = std::get<1>(GetParam());
  RandomStream rng(static_cast<uint64_t>(fanout * 1000 + n));
  std::vector<BTreeEntry> entries;
  std::multimap<Value, RecordId> ref;
  for (int i = 0; i < n; ++i) {
    const Value key = rng.UniformInt(0, n / 4);  // force duplicates
    const auto rid = static_cast<RecordId>(i);
    entries.push_back({key, rid});
    ref.emplace(key, rid);
  }
  const BPlusTree t = Load(entries, fanout);
  EXPECT_EQ(t.size(), static_cast<int64_t>(ref.size()));

  // Point queries: the multimap keeps equal keys in insertion order too.
  for (int probe = 0; probe <= n / 4; probe += 7) {
    std::vector<RecordId> want;
    auto [lo, hi] = ref.equal_range(probe);
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    EXPECT_EQ(Rids(t.Range(probe, probe)), want) << "key " << probe;
  }

  // Range queries.
  for (int trial = 0; trial < 20; ++trial) {
    Value a = rng.UniformInt(0, n / 4);
    Value b = rng.UniformInt(0, n / 4);
    if (a > b) std::swap(a, b);
    std::vector<RecordId> want;
    for (auto it = ref.lower_bound(a); it != ref.end() && it->first <= b; ++it) {
      want.push_back(it->second);
    }
    EXPECT_EQ(Rids(t.Range(a, b)), want) << "range [" << a << "," << b << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    FanoutsAndSizes, BTreeRandomized,
    ::testing::Combine(::testing::Values(4, 5, 16, 64, 256),
                       ::testing::Values(100, 1000, 5000)));

}  // namespace
}  // namespace declust::storage
