#include "src/storage/btree.h"

#include <algorithm>
#include <cassert>

namespace declust::storage {

namespace {

struct Shape {
  int height = 0;
  int64_t leaves = 1;
  int64_t nodes = 1;
};

int64_t Capacity(int fanout) { return std::max(2, fanout * 9 / 10); }

// The bulk load packs each level into groups of up to `cap` nodes. When a
// level would end with a parent of a single child, the group before it
// gives up one child instead; that moves a child but never changes how many
// parents the level gets, so each level has ceil(below / cap) nodes.
Shape ShapeOf(int64_t entries, int fanout) {
  Shape shape;
  if (entries <= 0) return shape;  // one empty root leaf
  const int64_t cap = Capacity(fanout);
  shape.height = 1;
  shape.leaves = (entries + cap - 1) / cap;
  shape.nodes = shape.leaves;
  for (int64_t level = shape.leaves; level > 1; ++shape.height) {
    level = (level + cap - 1) / cap;
    shape.nodes += level;
  }
  return shape;
}

}  // namespace

BPlusTree BPlusTree::BulkLoad(std::vector<BTreeEntry> sorted_entries,
                              int fanout) {
  assert(fanout >= 4);
  assert(std::ranges::is_sorted(sorted_entries, {}, &BTreeEntry::key));
  BPlusTree tree;
  const Shape shape =
      ShapeOf(static_cast<int64_t>(sorted_entries.size()), fanout);
  tree.entries_ = std::move(sorted_entries);
  tree.leaf_cap_ = Capacity(fanout);
  tree.height_ = shape.height;
  tree.leaf_count_ = shape.leaves;
  tree.node_count_ = shape.nodes;
  return tree;
}

int64_t BPlusTree::BulkLoadNodeCount(int64_t entries, int fanout) {
  return ShapeOf(entries, fanout).nodes;
}

std::span<const BTreeEntry> BPlusTree::Range(Value lo, Value hi) const {
  if (lo > hi) return {};
  const auto first = std::ranges::lower_bound(entries_, lo, {},
                                              &BTreeEntry::key);
  const auto last = std::ranges::upper_bound(first, entries_.end(), hi, {},
                                             &BTreeEntry::key);
  return {first, last};
}

int64_t BPlusTree::LeafPagesTouched(Value lo, Value hi) const {
  if (entries_.empty() || lo > hi) return 0;
  const std::span<const BTreeEntry> range = Range(lo, hi);
  const int64_t p = range.data() - entries_.data();
  const int64_t q = p + static_cast<int64_t>(range.size());
  // The descent lands on the last leaf whose first key is below lo; the
  // walk stops on the leaf holding the first key above hi, or at the end.
  const int64_t first_leaf = p == 0 ? 0 : (p - 1) / leaf_cap_;
  const int64_t last_leaf = q < size() ? q / leaf_cap_ : leaf_count_ - 1;
  return last_leaf - first_leaf + 1;
}

int64_t BPlusTree::memory_bytes() const {
  return static_cast<int64_t>(sizeof(*this) +
                              entries_.capacity() * sizeof(BTreeEntry));
}

}  // namespace declust::storage
