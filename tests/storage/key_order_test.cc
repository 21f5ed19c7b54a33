// storage::SortByKey against its contract: the exact order a key-only
// std::sort leaves, rids included, across every tier (small inputs, sorted
// runs, dense placement, the radix sort) and every way back to std::sort (a
// repeated key, an input holding the empty-slot rid).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <vector>

#include "src/storage/btree.h"

namespace declust::storage {
namespace {

constexpr size_t kSizes[] = {0, 1, 2, 63, 64, 65, 1000, 100000};

void ExpectSortsLikeStdSort(const std::vector<BTreeEntry>& input) {
  std::vector<BTreeEntry> want = input;
  std::sort(want.begin(), want.end(),
            [](const BTreeEntry& a, const BTreeEntry& b) {
              return a.key < b.key;
            });
  std::vector<BTreeEntry> got = input;
  SortByKey(&got);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << "position " << i;
    ASSERT_EQ(got[i].rid, want[i].rid) << "position " << i;
  }
}

// Entries with the given keys, each rid its input position.
std::vector<BTreeEntry> WithPositions(const std::vector<Value>& keys) {
  std::vector<BTreeEntry> entries(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    entries[i] = {keys[i], static_cast<RecordId>(i)};
  }
  return entries;
}

std::vector<Value> Permutation(size_t n, std::mt19937_64& rng) {
  std::vector<Value> keys(n);
  std::iota(keys.begin(), keys.end(), 0);
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

// n distinct keys drawn from [0, 2n - 2] with both ends present, shuffled.
std::vector<Value> DenseWithHoles(size_t n, std::mt19937_64& rng) {
  if (n < 2) return Permutation(n, rng);
  std::vector<Value> pool(2 * n - 1);
  std::iota(pool.begin(), pool.end(), 0);
  std::shuffle(pool.begin() + 1, pool.end() - 1, rng);
  std::vector<Value> keys(pool.begin() + 1,
                          pool.begin() + static_cast<std::ptrdiff_t>(n) - 1);
  keys.push_back(pool.front());
  keys.push_back(pool.back());
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

std::vector<Value> Sparse(size_t n, std::mt19937_64& rng) {
  std::vector<Value> keys = Permutation(n, rng);
  for (Value& key : keys) key = key * 1000003 - 777;
  return keys;
}

// Random keys spanning the whole int64 domain (the span overflows int64).
std::vector<Value> FullSpan(size_t n, std::mt19937_64& rng) {
  std::vector<Value> keys;
  if (n >= 1) keys.push_back(std::numeric_limits<Value>::min());
  if (n >= 2) keys.push_back(std::numeric_limits<Value>::max());
  while (keys.size() < n) keys.push_back(static_cast<Value>(rng()));
  std::shuffle(keys.begin(), keys.end(), rng);
  return keys;
}

TEST(KeyOrderTest, OrdersOfAPermutation) {
  for (size_t n : kSizes) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    std::mt19937_64 rng(n);
    std::vector<Value> increasing(n);
    std::iota(increasing.begin(), increasing.end(), 0);
    ExpectSortsLikeStdSort(WithPositions(increasing));
    const std::vector<Value> decreasing(increasing.rbegin(),
                                        increasing.rend());
    ExpectSortsLikeStdSort(WithPositions(decreasing));
    std::vector<Value> shuffled = Permutation(n, rng);
    ExpectSortsLikeStdSort(WithPositions(shuffled));
    for (Value& key : shuffled) key -= static_cast<Value>(n) + 5;
    ExpectSortsLikeStdSort(WithPositions(shuffled));
  }
}

TEST(KeyOrderTest, DenseSparseAndFullSpanKeys) {
  for (size_t n : kSizes) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    std::mt19937_64 rng(n + 1);
    ExpectSortsLikeStdSort(WithPositions(DenseWithHoles(n, rng)));
    ExpectSortsLikeStdSort(WithPositions(Sparse(n, rng)));
    ExpectSortsLikeStdSort(WithPositions(FullSpan(n, rng)));
  }
}

TEST(KeyOrderTest, TiesKeepStdSortOrder) {
  for (size_t n : kSizes) {
    SCOPED_TRACE(testing::Message() << "n " << n);
    std::mt19937_64 rng(n + 2);
    std::vector<Value> heavy = Permutation(n, rng);
    for (Value& key : heavy) key %= 10;
    ExpectSortsLikeStdSort(WithPositions(heavy));
    if (n < 3) continue;
    // One repeated pair in otherwise dense and otherwise sparse keys; the
    // smallest and largest keys stay, so the span does not shrink.
    std::vector<Value> keys = Permutation(n, rng);
    *std::find(keys.begin(), keys.end(), 1) = 2;
    ExpectSortsLikeStdSort(WithPositions(keys));
    for (Value& key : keys) key = key * 1000003 - 777;
    ExpectSortsLikeStdSort(WithPositions(keys));
  }
}

TEST(KeyOrderTest, LargestRidIsNotAnEmptySlot) {
  std::mt19937_64 rng(3);
  for (size_t n : {size_t{64}, size_t{1000}}) {
    std::vector<BTreeEntry> entries = WithPositions(Permutation(n, rng));
    entries[n / 2].rid = std::numeric_limits<RecordId>::max();
    ExpectSortsLikeStdSort(entries);
    entries[n / 3].key = entries[n / 4].key;
    ExpectSortsLikeStdSort(entries);
  }
}

}  // namespace
}  // namespace declust::storage
