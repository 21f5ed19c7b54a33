// BPlusTree against the pointer tree it replaced (btree_reference.h): the
// same geometry, range entries and leaf pages touched for every fanout the
// catalog and BERD use and for sizes around one leaf.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/common/random.h"
#include "src/storage/btree.h"
#include "tests/storage/btree_reference.h"

namespace declust::storage {
namespace {

constexpr int kFanouts[] = {4, 5, 8, 16, 64, 340, 512};

int64_t LeafCap(int fanout) { return std::max(2, fanout * 9 / 10); }

std::vector<int64_t> Sizes(int fanout) {
  const int64_t cap = LeafCap(fanout);
  return {0, 1, 2, cap - 1, cap, cap + 1, 20000};
}

// Builds both trees from `keys` (stable-sorted, rids random so the order
// within a duplicate run is visible) and compares them on queries around
// every leaf boundary plus random ranges, some of them inverted.
void ExpectMatchesReference(const std::vector<Value>& keys, int fanout,
                            RandomStream& rng) {
  std::vector<BTreeEntry> entries;
  for (Value k : keys) {
    entries.push_back({k, static_cast<RecordId>(rng.UniformInt(0, 1 << 30))});
  }
  std::ranges::stable_sort(entries, {}, &BTreeEntry::key);
  const auto ref = reference::PointerBTree::BulkLoad(entries, fanout);
  const BPlusTree tree = BPlusTree::BulkLoad(entries, fanout);
  const auto n = static_cast<int64_t>(entries.size());
  ASSERT_EQ(tree.size(), ref.size());
  ASSERT_EQ(tree.height(), ref.height());
  ASSERT_EQ(tree.leaf_count(), ref.leaf_count());
  ASSERT_EQ(tree.node_count(), ref.node_count());
  ASSERT_EQ(BPlusTree::BulkLoadNodeCount(n, fanout), ref.node_count());

  const auto check = [&](Value lo, Value hi) {
    ASSERT_TRUE(std::ranges::equal(tree.Range(lo, hi), ref.RangeSearch(lo, hi)))
        << "range [" << lo << "," << hi << "]";
    ASSERT_EQ(tree.LeafPagesTouched(lo, hi), ref.LeafPagesTouched(lo, hi))
        << "range [" << lo << "," << hi << "]";
  };
  for (int64_t i = 0; i < n; i += LeafCap(fanout)) {
    const Value k = entries[static_cast<size_t>(i)].key;
    check(k, k);
    check(k - 1, k);
    check(k, k + 1);
    check(k + 1, k + 1);
  }
  const Value lo = n == 0 ? 0 : entries.front().key - 2;
  const Value hi = n == 0 ? 0 : entries.back().key + 2;
  for (int trial = 0; trial < 200; ++trial) {
    check(rng.UniformInt(lo, hi), rng.UniformInt(lo, hi));
  }
  check(lo, hi);
}

void ForEachFanoutAndSize(
    const std::function<std::vector<Value>(int64_t n, int64_t cap,
                                           RandomStream&)>& make_keys) {
  for (int fanout : kFanouts) {
    for (int64_t n : Sizes(fanout)) {
      SCOPED_TRACE(testing::Message() << "fanout " << fanout << ", n " << n);
      RandomStream rng(static_cast<uint64_t>(fanout) * 100003 +
                       static_cast<uint64_t>(n));
      ExpectMatchesReference(make_keys(n, LeafCap(fanout), rng), fanout, rng);
    }
  }
}

TEST(BTreeReferenceTest, RandomKeys) {
  ForEachFanoutAndSize([](int64_t n, int64_t, RandomStream& rng) {
    std::vector<Value> keys;
    for (int64_t i = 0; i < n; ++i) keys.push_back(rng.UniformInt(0, 4 * n));
    return keys;
  });
}

TEST(BTreeReferenceTest, DuplicateHeavyKeys) {
  ForEachFanoutAndSize([](int64_t n, int64_t, RandomStream& rng) {
    std::vector<Value> keys;
    for (int64_t i = 0; i < n; ++i) keys.push_back(rng.UniformInt(0, n / 8));
    return keys;
  });
}

// Each key's run covers two whole leaves and starts exactly on a leaf
// boundary, so a lookup of that key descends into the leaf before the run
// (the err-left case) and touches one more leaf than it matches.
TEST(BTreeReferenceTest, DuplicateRunsStartOnLeafBoundaries) {
  ForEachFanoutAndSize([](int64_t n, int64_t cap, RandomStream&) {
    std::vector<Value> keys;
    for (int64_t i = 0; i < n; ++i) keys.push_back(10 * (i / (2 * cap)));
    return keys;
  });
}

}  // namespace
}  // namespace declust::storage
