#include "src/storage/relation.h"

#include <algorithm>

namespace declust::storage {

Status Relation::Append(const std::vector<Value>& stored_values) {
  if (stored_values.size() != arity_) {
    return Status::InvalidArgument(
        "tuple arity does not match the schema's stored attributes");
  }
  const size_t r = static_cast<size_t>(cardinality_);
  if (r % kBlockRows == 0) {
    blocks_.push_back(
        std::make_unique_for_overwrite<Value[]>(kBlockRows * arity_));
  }
  Value* row = blocks_.back().get() + (r % kBlockRows) * arity_;
  std::copy(stored_values.begin(), stored_values.end(), row);
  ++cardinality_;
  return Status::OK();
}

std::vector<RecordId> Relation::AllRecords() const {
  std::vector<RecordId> rids(static_cast<size_t>(cardinality_));
  for (size_t i = 0; i < rids.size(); ++i) {
    rids[i] = static_cast<RecordId>(i);
  }
  return rids;
}

Result<std::pair<Value, Value>> Relation::AttrRange(AttrId attr) const {
  if (cardinality_ == 0) return Status::FailedPrecondition("empty relation");
  if (attr < 0 || attr >= schema_.num_attributes()) {
    return Status::OutOfRange("attribute index out of range");
  }
  Value lo = value(0, attr);
  Value hi = lo;
  for (int64_t r = 1; r < cardinality_; ++r) {
    const Value v = value(static_cast<RecordId>(r), attr);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return std::make_pair(lo, hi);
}

}  // namespace declust::storage
