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
// sorted (key, rid) run is stored, as a key array beside a rid array (12
// bytes an entry, and a search reads only keys); the pages are implied.
// Leaf i holds entries [i*cap, (i+1)*cap) with cap = max(2, fanout*9/10),
// and each internal level packs the level below into groups of up to cap
// children. That is the layout a bottom-up bulk load of a paged tree
// produces, so height, leaf and node counts follow from n and the fanout
// alone (BulkLoadNodeCount), and a lookup's leaf follows from an entry
// index.
//
// The descent errs left: at each level it takes the last child whose
// minimum key is below the search key, so a duplicate run that starts
// exactly on a leaf boundary is entered from the leaf before it. A search
// for lo therefore lands on leaf (p-1)/cap, where p is the index of the
// first entry >= lo (leaf 0 when p is 0), and the walk along the leaf
// chain stops at the leaf holding the first entry > hi.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "src/storage/types.h"

namespace declust::storage {

/// \brief One (key, record) pair stored in a leaf.
struct BTreeEntry {
  Value key;
  RecordId rid;

  friend bool operator==(const BTreeEntry&, const BTreeEntry&) = default;
};

/// \brief Sorts `entries` by key into exactly the order that std::sort with
/// a key-only comparator (no rid tie-break) leaves. Distinct keys have one
/// key order, so when no key repeats the entries are placed by counting
/// (dense keys) or by an LSD radix sort on the key's offset from the
/// minimum; any repeated key hands the untouched input to std::sort itself.
/// Scratch is per call, so concurrent calls on distinct vectors are safe.
void SortByKey(std::vector<BTreeEntry>* entries);

/// \brief A run of consecutive entries of one tree, in stored order: the
/// result of BPlusTree::Range. A view, valid while the tree lives.
class EntryRange {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = BTreeEntry;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const Value* key, const RecordId* rid) : key_(key), rid_(rid) {}
    BTreeEntry operator*() const { return {*key_, *rid_}; }
    Iterator& operator++() {
      ++key_;
      ++rid_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator before = *this;
      ++*this;
      return before;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.key_ == b.key_;
    }

   private:
    const Value* key_ = nullptr;
    const RecordId* rid_ = nullptr;
  };

  EntryRange() = default;
  EntryRange(const Value* keys, const RecordId* rids, size_t size)
      : keys_(keys), rids_(rids), size_(size) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Value key(size_t i) const { return keys_[i]; }
  RecordId rid(size_t i) const { return rids_[i]; }
  Iterator begin() const { return {keys_, rids_}; }
  Iterator end() const { return {keys_ + size_, rids_ + size_}; }

 private:
  const Value* keys_ = nullptr;
  const RecordId* rids_ = nullptr;
  size_t size_ = 0;
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
  /// of equal keys is kept); the tree keeps its own copy. `fanout` must be
  /// >= 4.
  static BPlusTree BulkLoad(std::span<const BTreeEntry> sorted_entries,
                            int fanout = 256);

  /// All entries with lo <= key <= hi, in stored order; empty if lo > hi.
  EntryRange Range(Value lo, Value hi) const;

  /// Number of levels (0 for an empty tree; 1 = a single leaf).
  int height() const { return height_; }

  /// Total entries stored.
  int64_t size() const { return static_cast<int64_t>(keys_.size()); }

  /// Number of leaf nodes (= leaf pages). 64-bit: a 100M-tuple relation at
  /// low fanout overflows a 32-bit page count downstream (pages * page_size
  /// is a byte count).
  int64_t leaf_count() const { return leaf_count_; }

  /// Number of nodes overall (= total index pages).
  int64_t node_count() const { return node_count_; }

  /// Number of leaf pages a range scan [lo, hi] touches (>= 1 whenever the
  /// tree is non-empty: the search lands on a leaf even if nothing matches).
  int64_t LeafPagesTouched(Value lo, Value hi) const;

  /// Resident bytes of the tree (the object plus its key and rid capacity).
  int64_t memory_bytes() const;

  /// Number of nodes BulkLoad produces for `entries` entries at `fanout` —
  /// a pure function of the two, so extent sizes can be computed without
  /// building the tree (the serial allocation pass of a parallel catalog
  /// build relies on this).
  static int64_t BulkLoadNodeCount(int64_t entries, int fanout);

 private:
  /// Positions [first, last) of the entries with lo <= key <= hi.
  std::pair<size_t, size_t> Bounds(Value lo, Value hi) const;

  std::vector<Value> keys_;
  std::vector<RecordId> rids_;
  int64_t leaf_cap_ = 2;
  int height_ = 0;
  int64_t leaf_count_ = 1;
  int64_t node_count_ = 1;
};

}  // namespace declust::storage
