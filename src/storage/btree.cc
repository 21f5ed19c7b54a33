#include "src/storage/btree.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <memory>

namespace declust::storage {

namespace {

// Below this size std::sort beats the counting tiers' fixed costs.
constexpr size_t kSmallSort = 64;

// An empty slot of the dense placement; an input holding this rid skips it.
constexpr RecordId kNoRid = std::numeric_limits<RecordId>::max();

void KeyOnlySort(std::vector<BTreeEntry>* entries) {
  std::sort(entries->begin(), entries->end(),
            [](const BTreeEntry& a, const BTreeEntry& b) {
              return a.key < b.key;
            });
}

// key - min, exact for any two int64 keys (unsigned arithmetic wraps).
uint64_t Offset(Value key, Value min) {
  return static_cast<uint64_t>(key) - static_cast<uint64_t>(min);
}

// Places each entry in a slot array indexed by key - min, then reads the
// filled slots back in order. Returns false, with `entries` untouched, when
// two entries land on one slot (a repeated key).
bool PlaceDense(std::vector<BTreeEntry>* entries, Value min, uint64_t span) {
  std::vector<RecordId> slots(span + 1, kNoRid);
  for (const BTreeEntry& e : *entries) {
    RecordId& slot = slots[Offset(e.key, min)];
    if (slot != kNoRid) return false;
    slot = e.rid;
  }
  size_t out = 0;
  for (uint64_t offset = 0; offset <= span; ++offset) {
    if (slots[offset] == kNoRid) continue;
    (*entries)[out++] = {static_cast<Value>(static_cast<uint64_t>(min) + offset),
                         slots[offset]};
  }
  return true;
}

// LSD radix sort on key - min, one 8-bit digit per pass and as many passes
// as `span` has bytes, ping-ponging between two scratch buffers. Returns
// false, with `entries` untouched, when the sorted keys hold a repeat.
bool RadixSort(std::vector<BTreeEntry>* entries, Value min, uint64_t span) {
  const size_t n = entries->size();
  int passes = 0;
  for (uint64_t rest = span; rest != 0; rest >>= 8) ++passes;
  // Every pass's digit counts, from one read of the input.
  std::vector<std::array<size_t, 256>> next(static_cast<size_t>(passes));
  for (const BTreeEntry& e : *entries) {
    const uint64_t offset = Offset(e.key, min);
    for (int pass = 0; pass < passes; ++pass) {
      ++next[static_cast<size_t>(pass)][(offset >> (8 * pass)) & 0xFF];
    }
  }
  const auto ping = std::make_unique_for_overwrite<BTreeEntry[]>(n);
  const auto pong = std::make_unique_for_overwrite<BTreeEntry[]>(n);
  const BTreeEntry* from = entries->data();
  BTreeEntry* to = ping.get();
  for (int pass = 0; pass < passes; ++pass) {
    std::array<size_t, 256>& slot = next[static_cast<size_t>(pass)];
    size_t start = 0;
    for (size_t& s : slot) start += std::exchange(s, start);
    const int shift = 8 * pass;
    for (size_t i = 0; i < n; ++i) {
      to[slot[(Offset(from[i].key, min) >> shift) & 0xFF]++] = from[i];
    }
    from = to;
    to = to == ping.get() ? pong.get() : ping.get();
  }
  for (size_t i = 1; i < n; ++i) {
    if (from[i - 1].key == from[i].key) return false;
  }
  std::copy(from, from + n, entries->begin());
  return true;
}

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

void SortByKey(std::vector<BTreeEntry>* entries) {
  const size_t n = entries->size();
  if (n < kSmallSort) {
    KeyOnlySort(entries);
    return;
  }
  const std::vector<BTreeEntry>& in = *entries;
  Value min = in[0].key;
  Value max = in[0].key;
  bool increasing = true;
  bool holds_no_rid = in[0].rid == kNoRid;
  for (size_t i = 1; i < n; ++i) {
    const Value key = in[i].key;
    increasing &= in[i - 1].key < key;
    min = std::min(min, key);
    max = std::max(max, key);
    holds_no_rid |= in[i].rid == kNoRid;
  }
  if (increasing) return;
  const uint64_t span = Offset(max, min);
  // Fewer possible keys than entries: some key repeats.
  if (span < n - 1) {
    KeyOnlySort(entries);
    return;
  }
  const bool placed = span < 2 * static_cast<uint64_t>(n) && !holds_no_rid
                          ? PlaceDense(entries, min, span)
                          : RadixSort(entries, min, span);
  if (!placed) KeyOnlySort(entries);
}

BPlusTree BPlusTree::BulkLoad(std::span<const BTreeEntry> sorted_entries,
                              int fanout) {
  assert(fanout >= 4);
  assert(std::ranges::is_sorted(sorted_entries, {}, &BTreeEntry::key));
  BPlusTree tree;
  const Shape shape =
      ShapeOf(static_cast<int64_t>(sorted_entries.size()), fanout);
  tree.keys_.reserve(sorted_entries.size());
  tree.rids_.reserve(sorted_entries.size());
  for (const BTreeEntry& e : sorted_entries) {
    tree.keys_.push_back(e.key);
    tree.rids_.push_back(e.rid);
  }
  tree.leaf_cap_ = Capacity(fanout);
  tree.height_ = shape.height;
  tree.leaf_count_ = shape.leaves;
  tree.node_count_ = shape.nodes;
  return tree;
}

int64_t BPlusTree::BulkLoadNodeCount(int64_t entries, int fanout) {
  return ShapeOf(entries, fanout).nodes;
}

std::pair<size_t, size_t> BPlusTree::Bounds(Value lo, Value hi) const {
  const auto first = std::ranges::lower_bound(keys_, lo);
  const auto last = std::upper_bound(first, keys_.end(), hi);
  return {static_cast<size_t>(first - keys_.begin()),
          static_cast<size_t>(last - keys_.begin())};
}

EntryRange BPlusTree::Range(Value lo, Value hi) const {
  if (lo > hi) return {};
  const auto [p, q] = Bounds(lo, hi);
  return {keys_.data() + p, rids_.data() + p, q - p};
}

int64_t BPlusTree::LeafPagesTouched(Value lo, Value hi) const {
  if (keys_.empty() || lo > hi) return 0;
  const auto [first, last] = Bounds(lo, hi);
  const auto p = static_cast<int64_t>(first);
  const auto q = static_cast<int64_t>(last);
  // The descent lands on the last leaf whose first key is below lo; the
  // walk stops on the leaf holding the first key above hi, or at the end.
  const int64_t first_leaf = p == 0 ? 0 : (p - 1) / leaf_cap_;
  const int64_t last_leaf = q < size() ? q / leaf_cap_ : leaf_count_ - 1;
  return last_leaf - first_leaf + 1;
}

int64_t BPlusTree::memory_bytes() const {
  return static_cast<int64_t>(sizeof(*this) +
                              keys_.capacity() * sizeof(Value) +
                              rids_.capacity() * sizeof(RecordId));
}

}  // namespace declust::storage
