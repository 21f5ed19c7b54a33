#include "src/decluster/cmd.h"

#include <algorithm>
#include <numeric>

namespace declust::decluster {

Result<std::unique_ptr<CmdPartitioning>> CmdPartitioning::Create(
    const storage::Relation& relation,
    const std::vector<storage::AttrId>& schema_attrs, int num_nodes) {
  if (num_nodes < 1) return Status::InvalidArgument("num_nodes < 1");
  if (schema_attrs.empty()) {
    return Status::InvalidArgument("no partitioning attributes");
  }
  if (relation.cardinality() == 0) {
    return Status::FailedPrecondition("empty relation");
  }
  for (storage::AttrId a : schema_attrs) {
    if (a < 0 || a >= relation.schema().num_attributes()) {
      return Status::OutOfRange("partitioning attribute out of range");
    }
  }

  auto part = std::unique_ptr<CmdPartitioning>(new CmdPartitioning());
  part->num_nodes_cached_ = num_nodes;
  const int64_t n = relation.cardinality();
  const int k = static_cast<int>(schema_attrs.size());

  // Equi-depth scales: P slices per dimension via value quantiles.
  part->scales_.resize(static_cast<size_t>(k));
  std::vector<Value> values(static_cast<size_t>(n));
  for (int d = 0; d < k; ++d) {
    for (int64_t i = 0; i < n; ++i) {
      values[static_cast<size_t>(i)] = relation.value(
          static_cast<RecordId>(i), schema_attrs[static_cast<size_t>(d)]);
    }
    std::sort(values.begin(), values.end());
    auto& scale = part->scales_[static_cast<size_t>(d)];
    for (int s = 1; s < num_nodes; ++s) {
      const Value cut = values[static_cast<size_t>(n * s / num_nodes)];
      // Duplicate quantiles (skewed data) simply merge slices.
      (void)scale.AddCut(cut);
    }
  }

  // Assign each tuple through its cell coordinates.
  std::vector<int> home(static_cast<size_t>(n));
  std::vector<int> coords(static_cast<size_t>(k));
  for (int64_t i = 0; i < n; ++i) {
    const auto rid = static_cast<RecordId>(i);
    for (int d = 0; d < k; ++d) {
      coords[static_cast<size_t>(d)] =
          part->scales_[static_cast<size_t>(d)].SliceOf(
              relation.value(rid, schema_attrs[static_cast<size_t>(d)]));
    }
    home[static_cast<size_t>(i)] = part->NodeOfCell(coords);
  }
  part->SetAssignment(num_nodes, static_cast<int>(schema_attrs.size()),
                      std::move(home));
  return part;
}

int CmdPartitioning::NodeOfCell(const std::vector<int>& coords) const {
  int64_t sum = 0;
  for (int c : coords) sum += c;
  return static_cast<int>(sum % num_nodes_cached_);
}

std::vector<int> CmdPartitioning::NodesForBox(
    const std::vector<Value>& lo, const std::vector<Value>& hi) const {
  // Residues reachable as the sum of one slice index per dimension.
  const int p = num_nodes_cached_;
  std::vector<bool> reachable(static_cast<size_t>(p), false);
  reachable[0] = true;
  for (size_t d = 0; d < scales_.size(); ++d) {
    auto [first, last] = scales_[d].SlicesOverlapping(lo[d], hi[d]);
    std::vector<bool> next(static_cast<size_t>(p), false);
    // A span of p or more slices covers every residue.
    if (last - first + 1 >= p) {
      std::fill(next.begin(), next.end(), true);
    } else {
      for (int r = 0; r < p; ++r) {
        if (!reachable[static_cast<size_t>(r)]) continue;
        for (int s = first; s <= last; ++s) {
          next[static_cast<size_t>((r + s) % p)] = true;
        }
      }
    }
    reachable = std::move(next);
  }
  std::vector<int> nodes;
  for (int r = 0; r < p; ++r) {
    if (reachable[static_cast<size_t>(r)]) nodes.push_back(r);
  }
  return nodes;
}

void CmdPartitioning::SitesForInto(const Predicate& q,
                                   PlanSites* out) const {
  const size_t k = scales_.size();
  std::vector<Value> lo(k, std::numeric_limits<Value>::min());
  std::vector<Value> hi(k, std::numeric_limits<Value>::max());
  lo[static_cast<size_t>(q.attr)] = q.lo;
  hi[static_cast<size_t>(q.attr)] = q.hi;
  out->clear();
  out->data_nodes = NodesForBox(lo, hi);
}

std::vector<int> CmdPartitioning::SitesForInsert(
    const std::vector<Value>& attr_values) const {
  std::vector<int> coords(scales_.size());
  for (size_t d = 0; d < scales_.size(); ++d) {
    coords[d] = scales_[d].SliceOf(attr_values[d]);
  }
  return {NodeOfCell(coords)};
}

}  // namespace declust::decluster
