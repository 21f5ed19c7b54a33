// The B+-tree as it stood before BPlusTree became a sorted leaf run: a
// verbatim copy of the pointer tree's node, bulk load, lower-bound descent
// and leaf-chain walks (Insert/Erase and their split/merge helpers left
// out, since nothing ran them). BPlusTree must report the same height, leaf
// and node counts, range entries and leaf pages touched (see
// btree_reference_test.cc).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/storage/btree.h"
#include "src/storage/types.h"

namespace declust::storage::reference {

class PointerBTree {
 public:
  explicit PointerBTree([[maybe_unused]] int fanout) {
    assert(fanout >= 4);
    root_ = std::make_unique<Node>(/*is_leaf=*/true);
    leaf_count_ = 1;
    node_count_ = 1;
  }

  static PointerBTree BulkLoad(const std::vector<BTreeEntry>& sorted_entries,
                               int fanout) {
    PointerBTree tree(fanout);
    if (sorted_entries.empty()) return tree;

    // Build the leaf level. Leaves are filled to ~90% to leave insert slack.
    const auto leaf_cap =
        static_cast<size_t>(std::max(2, fanout * 9 / 10));
    std::vector<std::unique_ptr<Node>> level;
    std::vector<Value> level_min;  // min key of each node's subtree
    size_t i = 0;
    Node* prev = nullptr;
    while (i < sorted_entries.size()) {
      auto leaf = std::make_unique<Node>(/*is_leaf=*/true);
      const size_t end = std::min(i + leaf_cap, sorted_entries.size());
      for (; i < end; ++i) {
        leaf->keys.push_back(sorted_entries[i].key);
        leaf->rids.push_back(sorted_entries[i].rid);
      }
      if (prev != nullptr) prev->next = leaf.get();
      prev = leaf.get();
      level_min.push_back(leaf->keys.front());
      level.push_back(std::move(leaf));
    }
    tree.leaf_count_ = static_cast<int64_t>(level.size());
    tree.node_count_ = static_cast<int64_t>(level.size());
    tree.size_ = static_cast<int64_t>(sorted_entries.size());

    // Build internal levels until a single root remains.
    const auto node_cap = static_cast<size_t>(std::max(2, fanout * 9 / 10));
    while (level.size() > 1) {
      std::vector<std::unique_ptr<Node>> parents;
      std::vector<Value> parents_min;
      size_t j = 0;
      while (j < level.size()) {
        auto parent = std::make_unique<Node>(/*is_leaf=*/false);
        ++tree.node_count_;
        size_t end = std::min(j + node_cap, level.size());
        // Avoid a trailing parent with a single child.
        if (level.size() - end == 1) --end;
        parents_min.push_back(level_min[j]);
        parent->children.push_back(std::move(level[j]));
        for (size_t k = j + 1; k < end; ++k) {
          parent->keys.push_back(level_min[k]);
          parent->children.push_back(std::move(level[k]));
        }
        j = end;
        parents.push_back(std::move(parent));
      }
      level = std::move(parents);
      level_min = std::move(parents_min);
    }
    tree.root_ = std::move(level.front());
    return tree;
  }

  /// All entries with lo <= key <= hi, in leaf-chain order.
  std::vector<BTreeEntry> RangeSearch(Value lo, Value hi) const {
    std::vector<BTreeEntry> out;
    if (lo > hi || size_ == 0) return out;
    for (const Node* leaf = FindLeaf(lo); leaf != nullptr; leaf = leaf->next) {
      for (size_t i = static_cast<size_t>(
               std::lower_bound(leaf->keys.begin(), leaf->keys.end(), lo) -
               leaf->keys.begin());
           i < leaf->keys.size(); ++i) {
        if (leaf->keys[i] > hi) return out;
        out.push_back(BTreeEntry{leaf->keys[i], leaf->rids[i]});
      }
    }
    return out;
  }

  int height() const {
    if (size_ == 0) return 0;
    int h = 1;
    const Node* n = root_.get();
    while (!n->leaf) {
      ++h;
      n = n->children[0].get();
    }
    return h;
  }

  int64_t LeafPagesTouched(Value lo, Value hi) const {
    if (size_ == 0 || lo > hi) return 0;
    const Node* leaf = FindLeaf(lo);
    int64_t pages = 0;
    while (leaf != nullptr) {
      ++pages;
      const bool past_hi = !leaf->keys.empty() && leaf->keys.back() > hi;
      if (past_hi) break;
      leaf = leaf->next;
    }
    return pages;
  }

  int64_t size() const { return size_; }
  int64_t leaf_count() const { return leaf_count_; }
  int64_t node_count() const { return node_count_; }

 private:
  struct Node {
    bool leaf;
    // Internal: separator keys; keys[i] is the minimum key of children[i+1]'s
    // subtree at creation time. Leaf: entry keys (parallel to rids).
    std::vector<Value> keys;
    std::vector<std::unique_ptr<Node>> children;  // internal only
    std::vector<RecordId> rids;                   // leaf only
    Node* next = nullptr;                         // leaf chain

    explicit Node(bool is_leaf) : leaf(is_leaf) {}
  };

  const Node* FindLeaf(Value key) const {
    const Node* n = root_.get();
    while (!n->leaf) {
      // lower_bound descent: err to the left so duplicate runs that straddle
      // a separator are not skipped.
      const int idx = static_cast<int>(
          std::lower_bound(n->keys.begin(), n->keys.end(), key) -
          n->keys.begin());
      n = n->children[static_cast<size_t>(idx)].get();
    }
    return n;
  }

  std::unique_ptr<Node> root_;
  int64_t size_ = 0;
  int64_t leaf_count_ = 0;
  int64_t node_count_ = 0;
};

}  // namespace declust::storage::reference
