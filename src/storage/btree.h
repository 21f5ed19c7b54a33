// A real B+-tree over (int64 key -> RecordId), supporting duplicates.
//
// The tree serves two purposes in the reproduction:
//  1. logically: it finds qualifying record ids for index selections and
//     implements BERD's auxiliary relations;
//  2. physically: each node corresponds to one disk page, so the simulator
//     can charge exactly the pages an index traversal touches (height()
//     random reads plus LeafPagesTouched(lo,hi) leaf reads).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/storage/types.h"

namespace declust::storage {

/// \brief One (key, record) pair stored in a leaf.
struct BTreeEntry {
  Value key;
  RecordId rid;

  friend bool operator==(const BTreeEntry&, const BTreeEntry&) = default;
};

/// \brief B+-tree with configurable fanout (max children of an internal
/// node; max entries of a leaf). Duplicate keys are allowed.
class BPlusTree {
 public:
  /// \param fanout maximum number of children per internal node and entries
  ///        per leaf; must be >= 4.
  explicit BPlusTree(int fanout = 256);
  ~BPlusTree();

  BPlusTree(BPlusTree&&) noexcept;
  BPlusTree& operator=(BPlusTree&&) noexcept;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Builds a tree from entries sorted by key (fastest, produces full leaves).
  static BPlusTree BulkLoad(std::vector<BTreeEntry> sorted_entries,
                            int fanout = 256);

  /// Inserts one entry (duplicates allowed).
  void Insert(Value key, RecordId rid);

  /// Removes one entry matching (key, rid) exactly; returns false if no
  /// such entry exists. Underfull nodes borrow from or merge with siblings,
  /// and the tree shrinks when the root empties.
  bool Erase(Value key, RecordId rid);

  /// Record ids of all entries with exactly `key`.
  std::vector<RecordId> Search(Value key) const;

  /// All entries with lo <= key <= hi, in key order.
  std::vector<BTreeEntry> RangeSearch(Value lo, Value hi) const;

  /// Calls fn(entry) for every entry with lo <= key <= hi, in key order.
  /// Allocation-free: walks the leaf chain in place.
  template <typename Fn>
  void ForEachInRange(Value lo, Value hi, Fn&& fn) const {
    if (lo > hi || size_ == 0) return;
    for (LeafView v = ViewLeaf(FindLeaf(lo));; v = ViewLeaf(v.next)) {
      for (size_t i = static_cast<size_t>(
               std::lower_bound(v.keys, v.keys + v.size, lo) - v.keys);
           i < v.size; ++i) {
        if (v.keys[i] > hi) return;
        fn(BTreeEntry{v.keys[i], v.rids[i]});
      }
      if (v.next == nullptr) return;
    }
  }

  /// Appends all entries with lo <= key <= hi (in key order) to `out`
  /// without clearing it. The allocation-free variant for hot paths that
  /// reuse a scratch vector: once the scratch has grown to the working-set
  /// size, range lookups stop touching the heap.
  void RangeSearchInto(Value lo, Value hi,
                       std::vector<BTreeEntry>* out) const;

  /// Aggregate shape of the range [lo, hi]: entry count plus the first and
  /// last matching entries (valid only when count > 0). Walks the leaf
  /// chain without materialising the entries — the clustered access path
  /// needs exactly this and nothing else.
  struct RangeStats {
    int64_t count = 0;
    BTreeEntry first{};
    BTreeEntry last{};
  };
  RangeStats RangeBounds(Value lo, Value hi) const;

  /// Number of entries with lo <= key <= hi; allocation-free.
  int64_t RangeCount(Value lo, Value hi) const { return RangeBounds(lo, hi).count; }

  /// Number of levels (0 for an empty tree; 1 = a single leaf).
  int height() const;

  /// Total entries stored.
  int64_t size() const { return size_; }

  /// Number of leaf nodes (= leaf pages). 64-bit: a 100M-tuple relation at
  /// low fanout overflows a 32-bit page count downstream (pages * page_size
  /// is a byte count).
  int64_t leaf_count() const { return leaf_count_; }

  /// Number of nodes overall (= total index pages).
  int64_t node_count() const { return node_count_; }

  /// Number of leaf pages a range scan [lo, hi] touches (>= 1 whenever the
  /// tree is non-empty: the search lands on a leaf even if nothing matches).
  int64_t LeafPagesTouched(Value lo, Value hi) const;

  /// Checks structural invariants (key order, fill, leaf chain, height
  /// balance). Used by property tests.
  Status Validate() const;

  /// Approximate resident bytes of the tree (nodes + vector capacity).
  /// O(node_count); meant for setup-time footprint accounting, not hot
  /// paths.
  int64_t memory_bytes() const;

  /// Number of nodes BulkLoad produces for `entries` entries at `fanout` —
  /// a pure function of the two, so extent sizes can be computed without
  /// building the tree (the serial allocation pass of a parallel catalog
  /// build relies on this).
  static int64_t BulkLoadNodeCount(int64_t entries, int fanout);

 private:
  struct Node;
  /// A leaf's entries and successor, for the inline range walk.
  struct LeafView {
    const Value* keys;
    const RecordId* rids;
    size_t size;
    const Node* next;
  };
  static LeafView ViewLeaf(const Node* leaf);

  void InsertIntoLeaf(Node* leaf, Value key, RecordId rid);
  Node* FindLeaf(Value key) const;
  void SplitChild(Node* parent, int child_idx);
  bool EraseFrom(Node* n, Value key, RecordId rid);
  bool IsUnderfull(const Node* n) const;
  void FixChild(Node* parent, int child_idx);
  Status ValidateNode(const Node* n, int depth, int leaf_depth,
                      const Value* lower, const Value* upper) const;
  static int64_t NodeMemoryBytes(const Node* n);

  int fanout_;
  std::unique_ptr<Node> root_;
  int64_t size_ = 0;
  int64_t leaf_count_ = 0;
  int64_t node_count_ = 0;
};

}  // namespace declust::storage
