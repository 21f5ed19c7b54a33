#include "src/decluster/strategy.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace declust::decluster {

void Partitioning::SetAssignment(int num_nodes, int num_attrs,
                                 std::vector<int> record_home) {
  num_attrs_ = num_attrs;
  record_home_ = std::move(record_home);
  node_counts_.assign(static_cast<size_t>(num_nodes), 0);
  for (const int node : record_home_) {
    assert(node >= 0 && node < num_nodes);
    ++node_counts_[static_cast<size_t>(node)];
  }
}

void Partitioning::TakeAssignment(Partitioning* from) {
  num_attrs_ = std::exchange(from->num_attrs_, 0);
  record_home_ = std::exchange(from->record_home_, {});
  node_counts_ = std::exchange(from->node_counts_, {});
}

NodeGroups Partitioning::GroupByNode() const {
  NodeGroups groups;
  groups.offsets.assign(node_counts_.size() + 1, 0);
  for (size_t n = 0; n < node_counts_.size(); ++n) {
    groups.offsets[n + 1] = groups.offsets[n] + node_counts_[n];
  }
  groups.rids.resize(record_home_.size());
  // Each node's write cursor starts at its offset; visiting the records in
  // id order leaves every node's run ascending.
  std::vector<int64_t> next(groups.offsets.begin(), groups.offsets.end() - 1);
  for (size_t rid = 0; rid < record_home_.size(); ++rid) {
    const auto node = static_cast<size_t>(record_home_[rid]);
    groups.rids[static_cast<size_t>(next[node]++)] =
        static_cast<RecordId>(rid);
  }
  return groups;
}

std::pair<int64_t, int64_t> Partitioning::LoadExtremes() const {
  int64_t max_load = 0;
  int64_t min_load = record_home_.empty()
                         ? 0
                         : static_cast<int64_t>(record_home_.size());
  for (const int64_t load : node_counts_) {
    max_load = std::max(max_load, load);
    min_load = std::min(min_load, load);
  }
  return {max_load, min_load};
}

}  // namespace declust::decluster
