// In-memory relation: the ground-truth tuple store the declustering
// strategies partition and the simulator queries against.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/storage/schema.h"
#include "src/storage/types.h"

namespace declust::storage {

/// \brief A named relation with integer-valued attributes.
///
/// RecordIds are dense indices 0..cardinality-1 and never change.
///
/// Only the schema's stored attributes occupy memory: tuples live in
/// fixed-size blocks of `kBlockRows` rows, laid out attribute-major within a
/// row, exactly num_stored() * 8 bytes per tuple. A derived attribute is
/// computed from its stored base on every read. A row-of-vectors
/// representation would cost ~70 bytes of heap overhead per tuple (vector
/// header + malloc metadata); blocks never reallocate-and-copy while
/// growing.
class Relation {
 public:
  Relation(std::string name, Schema schema)
      : name_(std::move(name)),
        schema_(std::move(schema)),
        arity_(static_cast<size_t>(schema_.num_stored())) {}

  Relation(const Relation&) = delete;
  Relation& operator=(const Relation&) = delete;
  Relation(Relation&&) noexcept = default;
  Relation& operator=(Relation&&) noexcept = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int64_t cardinality() const { return cardinality_; }

  /// Appends a tuple; must have one value per stored schema attribute.
  Status Append(const std::vector<Value>& stored_values);

  Value value(RecordId rid, AttrId attr) const {
    if (static_cast<size_t>(attr) < arity_) return Stored(rid, attr);
    const Derivation& rule = schema_.derivation(attr);
    return rule.Apply(Stored(rid, rule.base));
  }

  /// All record ids, in insertion order.
  std::vector<RecordId> AllRecords() const;

  /// Minimum and maximum of an attribute (relation must be non-empty).
  Result<std::pair<Value, Value>> AttrRange(AttrId attr) const;

  /// Heap footprint of the tuple store: whole blocks, so at most one
  /// partly filled block beyond num_stored() * 8 bytes per tuple.
  size_t memory_bytes() const {
    return blocks_.size() * kBlockRows * arity_ * sizeof(Value);
  }

 private:
  static constexpr size_t kBlockRows = 4096;

  Value Stored(RecordId rid, AttrId attr) const {
    const size_t r = static_cast<size_t>(rid);
    return blocks_[r / kBlockRows]
                  [(r % kBlockRows) * arity_ + static_cast<size_t>(attr)];
  }

  std::string name_;
  Schema schema_;
  size_t arity_;  // stored attributes per tuple
  std::vector<std::unique_ptr<Value[]>> blocks_;
  int64_t cardinality_ = 0;
};

}  // namespace declust::storage
