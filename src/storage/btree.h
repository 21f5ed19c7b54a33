// A bulk-loaded B+-tree over (int64 key -> RecordId), duplicates allowed.
//
// The tree serves two purposes in the reproduction:
//  1. logically: it finds qualifying record ids for index selections and
//     implements BERD's auxiliary relations;
//  2. physically: each node corresponds to one disk page, so the simulator
//     can charge exactly the pages an index traversal touches (height()
//     random reads plus LeafPagesTouched(lo,hi) leaf reads).
//
// Every tree is built once by BulkLoad and never changed, so only the
// sorted (key, rid) run is stored; the pages are implied. Leaf i holds
// entries [i*cap, (i+1)*cap) with cap = max(2, fanout*9/10), and each
// internal level packs the level below into groups of up to cap children.
// That is the layout a bottom-up bulk load of a paged tree produces, so
// height, leaf and node counts follow from n and the fanout alone
// (BulkLoadNodeCount), and a lookup's leaf follows from an entry index.
//
// The descent errs left: at each level it takes the last child whose
// minimum key is below the search key, so a duplicate run that starts
// exactly on a leaf boundary is entered from the leaf before it. A search
// for lo therefore lands on leaf (p-1)/cap, where p is the index of the
// first entry >= lo (leaf 0 when p is 0), and the walk along the leaf
// chain stops at the leaf holding the first entry > hi.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/storage/types.h"

namespace declust::storage {

/// \brief One (key, record) pair stored in a leaf.
struct BTreeEntry {
  Value key;
  RecordId rid;

  friend bool operator==(const BTreeEntry&, const BTreeEntry&) = default;
};

/// \brief Static B+-tree with configurable fanout (max children of an
/// internal node; max entries of a leaf). An empty tree is one empty root
/// leaf: height 0, one leaf, one node.
class BPlusTree {
 public:
  BPlusTree() = default;
  BPlusTree(BPlusTree&&) noexcept = default;
  BPlusTree& operator=(BPlusTree&&) noexcept = default;
  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  /// Builds a tree from entries sorted by key (their order within a run
  /// of equal keys is kept). `fanout` must be >= 4.
  static BPlusTree BulkLoad(std::vector<BTreeEntry> sorted_entries,
                            int fanout = 256);

  /// All entries with lo <= key <= hi, in stored order; empty if lo > hi.
  /// A view into the tree, valid while the tree lives.
  std::span<const BTreeEntry> Range(Value lo, Value hi) const;

  /// Number of levels (0 for an empty tree; 1 = a single leaf).
  int height() const { return height_; }

  /// Total entries stored.
  int64_t size() const { return static_cast<int64_t>(entries_.size()); }

  /// Number of leaf nodes (= leaf pages). 64-bit: a 100M-tuple relation at
  /// low fanout overflows a 32-bit page count downstream (pages * page_size
  /// is a byte count).
  int64_t leaf_count() const { return leaf_count_; }

  /// Number of nodes overall (= total index pages).
  int64_t node_count() const { return node_count_; }

  /// Number of leaf pages a range scan [lo, hi] touches (>= 1 whenever the
  /// tree is non-empty: the search lands on a leaf even if nothing matches).
  int64_t LeafPagesTouched(Value lo, Value hi) const;

  /// Resident bytes of the tree (the object plus its entry capacity).
  int64_t memory_bytes() const;

  /// Number of nodes BulkLoad produces for `entries` entries at `fanout` —
  /// a pure function of the two, so extent sizes can be computed without
  /// building the tree (the serial allocation pass of a parallel catalog
  /// build relies on this).
  static int64_t BulkLoadNodeCount(int64_t entries, int fanout);

 private:
  std::vector<BTreeEntry> entries_;
  int64_t leaf_cap_ = 2;
  int height_ = 0;
  int64_t leaf_count_ = 1;
  int64_t node_count_ = 1;
};

}  // namespace declust::storage
