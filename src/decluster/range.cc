#include "src/decluster/range.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/storage/btree.h"

namespace declust::decluster {

Result<std::unique_ptr<RangePartitioning>> RangePartitioning::Create(
    const storage::Relation& relation,
    const std::vector<storage::AttrId>& schema_attrs, int num_nodes) {
  if (num_nodes < 1) return Status::InvalidArgument("num_nodes < 1");
  if (schema_attrs.empty()) {
    return Status::InvalidArgument("no partitioning attribute");
  }
  if (relation.cardinality() == 0) {
    return Status::FailedPrecondition("empty relation");
  }
  const storage::AttrId attr = schema_attrs[0];
  if (attr < 0 || attr >= relation.schema().num_attributes()) {
    return Status::OutOfRange("partitioning attribute out of range");
  }

  const int64_t n = relation.cardinality();
  // Sort records by the partitioning attribute and deal equal-cardinality
  // chunks to the nodes, recording each chunk's upper bound.
  std::vector<storage::BTreeEntry> order(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const auto rid = static_cast<RecordId>(i);
    order[static_cast<size_t>(i)] = {relation.value(rid, attr), rid};
  }
  storage::SortByKey(&order);

  auto part = std::unique_ptr<RangePartitioning>(new RangePartitioning());
  std::vector<int> home(static_cast<size_t>(n), 0);
  part->upper_bounds_.resize(static_cast<size_t>(num_nodes));
  for (int node = 0; node < num_nodes; ++node) {
    const int64_t begin = n * node / num_nodes;
    const int64_t end = n * (node + 1) / num_nodes;
    for (int64_t i = begin; i < end; ++i) {
      home[order[static_cast<size_t>(i)].rid] = node;
    }
    const int64_t last = std::max(begin, end - 1);
    part->upper_bounds_[static_cast<size_t>(node)] =
        order[static_cast<size_t>(last)].key;
  }
  // Ensure the last bound covers the whole domain.
  part->upper_bounds_.back() = std::numeric_limits<Value>::max();
  part->SetAssignment(num_nodes, static_cast<int>(schema_attrs.size()),
                      std::move(home));
  return part;
}

std::vector<int> RangePartitioning::NodesForRange(Value lo, Value hi) const {
  std::vector<int> nodes;
  NodesForRangeInto(lo, hi, &nodes);
  return nodes;
}

void RangePartitioning::NodesForRangeInto(Value lo, Value hi,
                                          std::vector<int>* out) const {
  out->clear();
  if (lo > hi) return;
  // First node whose upper bound >= lo.
  const auto first = std::lower_bound(upper_bounds_.begin(),
                                      upper_bounds_.end(), lo) -
                     upper_bounds_.begin();
  for (size_t i = static_cast<size_t>(first); i < upper_bounds_.size(); ++i) {
    out->push_back(static_cast<int>(i));
    if (upper_bounds_[i] >= hi) break;
  }
}

void RangePartitioning::SitesForInto(const Predicate& q,
                                     PlanSites* out) const {
  out->clear();
  if (q.attr == 0) {
    NodesForRangeInto(q.lo, q.hi, &out->data_nodes);
  } else {
    // Any other attribute: no partitioning information; all processors.
    out->data_nodes.resize(static_cast<size_t>(num_nodes()));
    std::iota(out->data_nodes.begin(), out->data_nodes.end(), 0);
  }
}

std::vector<int> RangePartitioning::SitesForInsert(
    const std::vector<Value>& attr_values) const {
  // Only the new tuple's home fragment is touched.
  return NodesForRange(attr_values[0], attr_values[0]);
}

}  // namespace declust::decluster
