#include "src/decluster/hash.h"

#include <numeric>

namespace declust::decluster {

int HashPartitioning::HashToNode(Value v, int num_nodes) {
  // Fibonacci hashing of the value.
  auto x = static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ULL;
  return static_cast<int>(x % static_cast<uint64_t>(num_nodes));
}

Result<std::unique_ptr<HashPartitioning>> HashPartitioning::Create(
    const storage::Relation& relation,
    const std::vector<storage::AttrId>& schema_attrs, int num_nodes) {
  if (num_nodes < 1) return Status::InvalidArgument("num_nodes < 1");
  if (schema_attrs.empty()) {
    return Status::InvalidArgument("no partitioning attribute");
  }
  const storage::AttrId attr = schema_attrs[0];
  if (attr < 0 || attr >= relation.schema().num_attributes()) {
    return Status::OutOfRange("partitioning attribute out of range");
  }
  auto part = std::unique_ptr<HashPartitioning>(new HashPartitioning());
  std::vector<int> home(static_cast<size_t>(relation.cardinality()));
  for (int64_t i = 0; i < relation.cardinality(); ++i) {
    home[static_cast<size_t>(i)] =
        HashToNode(relation.value(static_cast<RecordId>(i), attr), num_nodes);
  }
  part->SetAssignment(num_nodes, static_cast<int>(schema_attrs.size()),
                      std::move(home));
  return part;
}

void HashPartitioning::SitesForInto(const Predicate& q,
                                    PlanSites* out) const {
  out->clear();
  if (q.attr == 0 && q.lo == q.hi) {
    out->data_nodes.push_back(HashToNode(q.lo, num_nodes()));
  } else {
    out->data_nodes.resize(static_cast<size_t>(num_nodes()));
    std::iota(out->data_nodes.begin(), out->data_nodes.end(), 0);
  }
}

}  // namespace declust::decluster
