#include "src/decluster/berd.h"

#include <algorithm>
#include <limits>

namespace declust::decluster {

Result<std::unique_ptr<BerdPartitioning>> BerdPartitioning::Create(
    const storage::Relation& relation,
    const std::vector<storage::AttrId>& schema_attrs, int num_nodes,
    BerdOptions options) {
  if (schema_attrs.size() < 2) {
    return Status::InvalidArgument(
        "BERD needs a primary and a secondary partitioning attribute");
  }
  DECLUST_ASSIGN_OR_RETURN(
      auto primary, RangePartitioning::Create(relation, schema_attrs, num_nodes));

  auto part = std::unique_ptr<BerdPartitioning>(new BerdPartitioning());
  part->secondary_attr_ = schema_attrs[1];
  // The data placement is exactly the primary range partitioning; the
  // primary keeps only its bounds, for NodesForRange.
  part->TakeAssignment(primary.get());
  part->primary_ = std::move(primary);

  // Build the auxiliary relation: (secondary value, rid), sorted by value,
  // range partitioned into equal-cardinality fragments across the nodes.
  const int64_t n = relation.cardinality();
  std::vector<storage::BTreeEntry> aux(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const auto rid = static_cast<RecordId>(i);
    aux[static_cast<size_t>(i)] = {relation.value(rid, part->secondary_attr_),
                                   rid};
  }
  storage::SortByKey(&aux);

  part->aux_upper_bounds_.resize(static_cast<size_t>(num_nodes));
  part->aux_trees_.reserve(static_cast<size_t>(num_nodes));
  for (int node = 0; node < num_nodes; ++node) {
    const int64_t begin = n * node / num_nodes;
    const int64_t end = n * (node + 1) / num_nodes;
    const int64_t last = std::max(begin, end - 1);
    part->aux_upper_bounds_[static_cast<size_t>(node)] =
        aux[static_cast<size_t>(last)].key;
    part->aux_trees_.push_back(storage::BPlusTree::BulkLoad(
        std::span(aux).subspan(static_cast<size_t>(begin),
                               static_cast<size_t>(end - begin)),
        options.aux_tree_fanout));
  }
  part->aux_upper_bounds_.back() = std::numeric_limits<Value>::max();
  return part;
}

void BerdPartitioning::SitesForInto(const Predicate& q,
                                    PlanSites* out) const {
  out->clear();
  if (q.attr == 0) {
    primary_->NodesForRangeInto(q.lo, q.hi, &out->data_nodes);
    return;
  }

  // Phase 1: the auxiliary fragments covering [lo, hi] on the secondary
  // attribute.
  const auto first = std::lower_bound(aux_upper_bounds_.begin(),
                                      aux_upper_bounds_.end(), q.lo) -
                     aux_upper_bounds_.begin();
  for (size_t i = static_cast<size_t>(first); i < aux_upper_bounds_.size();
       ++i) {
    out->aux_nodes.push_back(static_cast<int>(i));
    if (aux_upper_bounds_[i] >= q.hi) break;
  }

  // Phase 2: the distinct home processors of the qualifying tuples (this is
  // what the auxiliary lookup would return).
  std::vector<int>& homes = out->data_nodes;
  for (int aux_node : out->aux_nodes) {
    const storage::EntryRange entries =
        aux_trees_[static_cast<size_t>(aux_node)].Range(q.lo, q.hi);
    for (size_t i = 0; i < entries.size(); ++i) {
      homes.push_back(NodeOf(entries.rid(i)));
    }
  }
  std::sort(homes.begin(), homes.end());
  homes.erase(std::unique(homes.begin(), homes.end()), homes.end());
}

std::vector<int> BerdPartitioning::SitesForInsert(
    const std::vector<Value>& attr_values) const {
  // The tuple's home fragment plus the auxiliary-relation fragment of the
  // secondary attribute value: every insert maintains IndexB too.
  std::vector<int> sites = primary_->NodesForRange(attr_values[0],
                                                   attr_values[0]);
  const auto aux = std::lower_bound(aux_upper_bounds_.begin(),
                                    aux_upper_bounds_.end(),
                                    attr_values[1]) -
                   aux_upper_bounds_.begin();
  sites.push_back(static_cast<int>(aux));
  std::sort(sites.begin(), sites.end());
  sites.erase(std::unique(sites.begin(), sites.end()), sites.end());
  return sites;
}

AuxLookupCost BerdPartitioning::AuxCost(int node, Value lo, Value hi) const {
  const auto& tree = aux_trees_[static_cast<size_t>(node)];
  AuxLookupCost cost;
  cost.index_pages = tree.height();
  cost.leaf_pages = tree.LeafPagesTouched(lo, hi);
  cost.entries = static_cast<int64_t>(tree.Range(lo, hi).size());
  return cost;
}

}  // namespace declust::decluster
