#include "src/decluster/strategy.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace declust::decluster {

void Partitioning::SetAssignment(int num_nodes, int num_attrs,
                                 std::vector<int> record_home) {
  num_attrs_ = num_attrs;
  record_home_ = std::move(record_home);
  node_records_.assign(static_cast<size_t>(num_nodes), {});
  for (size_t rid = 0; rid < record_home_.size(); ++rid) {
    const int node = record_home_[rid];
    assert(node >= 0 && node < num_nodes);
    node_records_[static_cast<size_t>(node)].push_back(
        static_cast<RecordId>(rid));
  }
}

void Partitioning::TakeAssignment(Partitioning* from) {
  num_attrs_ = std::exchange(from->num_attrs_, 0);
  record_home_ = std::exchange(from->record_home_, {});
  node_records_ = std::exchange(from->node_records_, {});
}

std::pair<int64_t, int64_t> Partitioning::LoadExtremes() const {
  int64_t max_load = 0;
  int64_t min_load = record_home_.empty()
                         ? 0
                         : static_cast<int64_t>(record_home_.size());
  for (const auto& records : node_records_) {
    const auto load = static_cast<int64_t>(records.size());
    max_load = std::max(max_load, load);
    min_load = std::min(min_load, load);
  }
  return {max_load, min_load};
}

}  // namespace declust::decluster
