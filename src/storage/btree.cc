#include "src/storage/btree.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace declust::storage {

struct BPlusTree::Node {
  bool leaf;
  // Internal: separator keys; keys[i] is the minimum key of children[i+1]'s
  // subtree at creation time. Leaf: entry keys (parallel to rids).
  std::vector<Value> keys;
  std::vector<std::unique_ptr<Node>> children;  // internal only
  std::vector<RecordId> rids;                   // leaf only
  Node* next = nullptr;                         // leaf chain

  explicit Node(bool is_leaf) : leaf(is_leaf) {}
};

BPlusTree::BPlusTree(int fanout) : fanout_(fanout) {
  assert(fanout >= 4);
  root_ = std::make_unique<Node>(/*is_leaf=*/true);
  leaf_count_ = 1;
  node_count_ = 1;
}

BPlusTree::~BPlusTree() = default;
BPlusTree::BPlusTree(BPlusTree&&) noexcept = default;
BPlusTree& BPlusTree::operator=(BPlusTree&&) noexcept = default;

void BPlusTree::SplitChild(Node* parent, int child_idx) {
  Node* child = parent->children[static_cast<size_t>(child_idx)].get();
  auto right = std::make_unique<Node>(child->leaf);
  ++node_count_;
  Value separator;

  if (child->leaf) {
    ++leaf_count_;
    const size_t mid = child->keys.size() / 2;
    separator = child->keys[mid];
    right->keys.assign(child->keys.begin() + static_cast<long>(mid),
                       child->keys.end());
    right->rids.assign(child->rids.begin() + static_cast<long>(mid),
                       child->rids.end());
    child->keys.resize(mid);
    child->rids.resize(mid);
    right->next = child->next;
    child->next = right.get();
  } else {
    const size_t mid = child->keys.size() / 2;
    separator = child->keys[mid];
    right->keys.assign(child->keys.begin() + static_cast<long>(mid) + 1,
                       child->keys.end());
    for (size_t i = mid + 1; i < child->children.size(); ++i) {
      right->children.push_back(std::move(child->children[i]));
    }
    child->keys.resize(mid);
    child->children.resize(mid + 1);
  }

  parent->keys.insert(parent->keys.begin() + child_idx, separator);
  parent->children.insert(parent->children.begin() + child_idx + 1,
                          std::move(right));
}

void BPlusTree::Insert(Value key, RecordId rid) {
  // Grow the tree if the root is full (proactive splitting).
  const bool root_full =
      root_->leaf ? static_cast<int>(root_->keys.size()) >= fanout_
                  : static_cast<int>(root_->children.size()) >= fanout_;
  if (root_full) {
    auto new_root = std::make_unique<Node>(/*is_leaf=*/false);
    ++node_count_;
    new_root->children.push_back(std::move(root_));
    root_ = std::move(new_root);
    SplitChild(root_.get(), 0);
  }

  Node* n = root_.get();
  while (!n->leaf) {
    // Descend to the right of existing duplicates.
    int idx = static_cast<int>(
        std::upper_bound(n->keys.begin(), n->keys.end(), key) -
        n->keys.begin());
    Node* child = n->children[static_cast<size_t>(idx)].get();
    const bool full =
        child->leaf ? static_cast<int>(child->keys.size()) >= fanout_
                    : static_cast<int>(child->children.size()) >= fanout_;
    if (full) {
      SplitChild(n, idx);
      if (key >= n->keys[static_cast<size_t>(idx)]) ++idx;
      child = n->children[static_cast<size_t>(idx)].get();
    }
    n = child;
  }
  InsertIntoLeaf(n, key, rid);
}

void BPlusTree::InsertIntoLeaf(Node* leaf, Value key, RecordId rid) {
  const auto it = std::upper_bound(leaf->keys.begin(), leaf->keys.end(), key);
  const auto pos = it - leaf->keys.begin();
  leaf->keys.insert(it, key);
  leaf->rids.insert(leaf->rids.begin() + pos, rid);
  ++size_;
}

bool BPlusTree::Erase(Value key, RecordId rid) {
  if (!EraseFrom(root_.get(), key, rid)) return false;
  --size_;
  // Shrink the tree when the root is an internal node with a single child.
  while (!root_->leaf && root_->children.size() == 1) {
    root_ = std::move(root_->children[0]);
    --node_count_;
  }
  return true;
}

bool BPlusTree::IsUnderfull(const Node* n) const {
  if (n->leaf) return static_cast<int>(n->keys.size()) < fanout_ / 2;
  return static_cast<int>(n->children.size()) < (fanout_ + 1) / 2;
}

bool BPlusTree::EraseFrom(Node* n, Value key, RecordId rid) {
  if (n->leaf) {
    const auto first =
        std::lower_bound(n->keys.begin(), n->keys.end(), key) -
        n->keys.begin();
    for (size_t i = static_cast<size_t>(first);
         i < n->keys.size() && n->keys[i] == key; ++i) {
      if (n->rids[i] == rid) {
        n->keys.erase(n->keys.begin() + static_cast<long>(i));
        n->rids.erase(n->rids.begin() + static_cast<long>(i));
        return true;
      }
    }
    return false;
  }
  // Duplicates may straddle separators: try every child whose range can
  // contain the key.
  const int lb = static_cast<int>(
      std::lower_bound(n->keys.begin(), n->keys.end(), key) -
      n->keys.begin());
  const int ub = static_cast<int>(
      std::upper_bound(n->keys.begin(), n->keys.end(), key) -
      n->keys.begin());
  for (int idx = lb; idx <= ub; ++idx) {
    Node* child = n->children[static_cast<size_t>(idx)].get();
    if (EraseFrom(child, key, rid)) {
      if (IsUnderfull(child)) FixChild(n, idx);
      return true;
    }
  }
  return false;
}

void BPlusTree::FixChild(Node* parent, int child_idx) {
  const auto ci = static_cast<size_t>(child_idx);
  Node* child = parent->children[ci].get();
  Node* left = child_idx > 0 ? parent->children[ci - 1].get() : nullptr;
  Node* right = child_idx + 1 < static_cast<int>(parent->children.size())
                    ? parent->children[ci + 1].get()
                    : nullptr;

  const auto has_spare = [this](const Node* s) {
    if (s == nullptr) return false;
    if (s->leaf) return static_cast<int>(s->keys.size()) > fanout_ / 2;
    return static_cast<int>(s->children.size()) > (fanout_ + 1) / 2;
  };

  if (has_spare(left)) {
    // Borrow the left sibling's last entry/child.
    if (child->leaf) {
      child->keys.insert(child->keys.begin(), left->keys.back());
      child->rids.insert(child->rids.begin(), left->rids.back());
      left->keys.pop_back();
      left->rids.pop_back();
      parent->keys[ci - 1] = child->keys.front();
    } else {
      child->keys.insert(child->keys.begin(), parent->keys[ci - 1]);
      child->children.insert(child->children.begin(),
                             std::move(left->children.back()));
      left->children.pop_back();
      parent->keys[ci - 1] = left->keys.back();
      left->keys.pop_back();
    }
    return;
  }
  if (has_spare(right)) {
    // Borrow the right sibling's first entry/child.
    if (child->leaf) {
      child->keys.push_back(right->keys.front());
      child->rids.push_back(right->rids.front());
      right->keys.erase(right->keys.begin());
      right->rids.erase(right->rids.begin());
      parent->keys[ci] = right->keys.front();
    } else {
      child->keys.push_back(parent->keys[ci]);
      child->children.push_back(std::move(right->children.front()));
      right->children.erase(right->children.begin());
      parent->keys[ci] = right->keys.front();
      right->keys.erase(right->keys.begin());
    }
    return;
  }

  // Merge with a sibling (prefer the left one so `child` is absorbed).
  int li = child_idx;  // index of the surviving (left) node
  Node* dst = child;
  Node* src = right;
  if (left != nullptr) {
    li = child_idx - 1;
    dst = left;
    src = child;
  }
  const auto lu = static_cast<size_t>(li);
  if (dst->leaf) {
    dst->keys.insert(dst->keys.end(), src->keys.begin(), src->keys.end());
    dst->rids.insert(dst->rids.end(), src->rids.begin(), src->rids.end());
    dst->next = src->next;
    --leaf_count_;
  } else {
    dst->keys.push_back(parent->keys[lu]);
    dst->keys.insert(dst->keys.end(), src->keys.begin(), src->keys.end());
    for (auto& c : src->children) dst->children.push_back(std::move(c));
  }
  --node_count_;
  parent->keys.erase(parent->keys.begin() + li);
  parent->children.erase(parent->children.begin() + li + 1);
}

BPlusTree::Node* BPlusTree::FindLeaf(Value key) const {
  Node* n = root_.get();
  while (!n->leaf) {
    // lower_bound descent: err to the left so duplicate runs that straddle a
    // separator are not skipped.
    const int idx = static_cast<int>(
        std::lower_bound(n->keys.begin(), n->keys.end(), key) -
        n->keys.begin());
    n = n->children[static_cast<size_t>(idx)].get();
  }
  return n;
}

std::vector<RecordId> BPlusTree::Search(Value key) const {
  std::vector<RecordId> out;
  for (const auto& e : RangeSearch(key, key)) out.push_back(e.rid);
  return out;
}

std::vector<BTreeEntry> BPlusTree::RangeSearch(Value lo, Value hi) const {
  std::vector<BTreeEntry> out;
  RangeSearchInto(lo, hi, &out);
  return out;
}

BPlusTree::LeafView BPlusTree::ViewLeaf(const Node* leaf) {
  return LeafView{leaf->keys.data(), leaf->rids.data(), leaf->keys.size(),
                  leaf->next};
}

void BPlusTree::RangeSearchInto(Value lo, Value hi,
                                std::vector<BTreeEntry>* out) const {
  ForEachInRange(lo, hi, [out](const BTreeEntry& e) { out->push_back(e); });
}

BPlusTree::RangeStats BPlusTree::RangeBounds(Value lo, Value hi) const {
  RangeStats stats;
  ForEachInRange(lo, hi, [&stats](const BTreeEntry& e) {
    if (stats.count == 0) stats.first = e;
    stats.last = e;
    ++stats.count;
  });
  return stats;
}

int BPlusTree::height() const {
  if (size_ == 0) return 0;
  int h = 1;
  const Node* n = root_.get();
  while (!n->leaf) {
    ++h;
    n = n->children[0].get();
  }
  return h;
}

int64_t BPlusTree::LeafPagesTouched(Value lo, Value hi) const {
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

BPlusTree BPlusTree::BulkLoad(std::vector<BTreeEntry> sorted_entries,
                              int fanout) {
  assert(std::is_sorted(
      sorted_entries.begin(), sorted_entries.end(),
      [](const BTreeEntry& a, const BTreeEntry& b) { return a.key < b.key; }));
  BPlusTree tree(fanout);
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

int64_t BPlusTree::BulkLoadNodeCount(int64_t entries, int fanout) {
  if (entries <= 0) return 1;  // the constructor always creates a root leaf
  const int64_t cap = std::max(2, fanout * 9 / 10);
  const int64_t leaves = (entries + cap - 1) / cap;
  int64_t total = leaves;
  int64_t level = leaves;
  // Mirror BulkLoad's internal-level chunking exactly, including the
  // "avoid a trailing parent with a single child" adjustment.
  while (level > 1) {
    int64_t parents = 0;
    int64_t j = 0;
    while (j < level) {
      int64_t end = std::min(j + cap, level);
      if (level - end == 1) --end;
      ++parents;
      j = end;
    }
    total += parents;
    level = parents;
  }
  return total;
}

int64_t BPlusTree::memory_bytes() const {
  return static_cast<int64_t>(sizeof(*this)) + NodeMemoryBytes(root_.get());
}

int64_t BPlusTree::NodeMemoryBytes(const Node* n) {
  if (n == nullptr) return 0;
  int64_t bytes = static_cast<int64_t>(
      sizeof(*n) + n->keys.capacity() * sizeof(Value) +
      n->children.capacity() * sizeof(std::unique_ptr<Node>) +
      n->rids.capacity() * sizeof(RecordId));
  for (const auto& child : n->children) bytes += NodeMemoryBytes(child.get());
  return bytes;
}

Status BPlusTree::ValidateNode(const Node* n, int depth, int leaf_depth,
                               const Value* lower, const Value* upper) const {
  if (!std::is_sorted(n->keys.begin(), n->keys.end())) {
    return Status::Internal("keys not sorted in node");
  }
  for (Value k : n->keys) {
    if (lower != nullptr && k < *lower) {
      return Status::Internal("key below subtree lower bound");
    }
    if (upper != nullptr && k > *upper) {
      return Status::Internal("key above subtree upper bound");
    }
  }
  if (n->leaf) {
    if (depth != leaf_depth) return Status::Internal("leaves at mixed depths");
    if (n->keys.size() != n->rids.size()) {
      return Status::Internal("leaf keys/rids size mismatch");
    }
    if (static_cast<int>(n->keys.size()) > fanout_) {
      return Status::Internal("overfull leaf");
    }
    return Status::OK();
  }
  if (n->children.size() != n->keys.size() + 1) {
    return Status::Internal("internal child count mismatch");
  }
  if (static_cast<int>(n->children.size()) > fanout_) {
    return Status::Internal("overfull internal node");
  }
  for (size_t i = 0; i < n->children.size(); ++i) {
    const Value* lo = (i == 0) ? lower : &n->keys[i - 1];
    const Value* hi = (i == n->keys.size()) ? upper : &n->keys[i];
    DECLUST_RETURN_NOT_OK(
        ValidateNode(n->children[i].get(), depth + 1, leaf_depth, lo, hi));
  }
  return Status::OK();
}

Status BPlusTree::Validate() const {
  // Determine leaf depth from the leftmost path.
  int leaf_depth = 0;
  const Node* n = root_.get();
  while (!n->leaf) {
    ++leaf_depth;
    n = n->children[0].get();
  }
  DECLUST_RETURN_NOT_OK(
      ValidateNode(root_.get(), 0, leaf_depth, nullptr, nullptr));

  // Leaf chain must enumerate exactly size_ entries in sorted order.
  const Node* leaf = root_.get();
  while (!leaf->leaf) leaf = leaf->children[0].get();
  int64_t count = 0;
  int64_t leaves = 0;
  bool first = true;
  Value last{};
  while (leaf != nullptr) {
    ++leaves;
    for (Value k : leaf->keys) {
      if (!first && k < last) return Status::Internal("leaf chain unsorted");
      last = k;
      first = false;
      ++count;
    }
    leaf = leaf->next;
  }
  if (count != size_) return Status::Internal("leaf chain size mismatch");
  if (leaves != leaf_count_) {
    return Status::Internal("leaf_count_ out of sync: " +
                            std::to_string(leaves) + " vs " +
                            std::to_string(leaf_count_));
  }
  return Status::OK();
}

}  // namespace declust::storage
