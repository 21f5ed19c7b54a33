// Single-attribute range declustering (the paper's baseline).
#pragma once

#include <memory>

#include "src/decluster/strategy.h"

namespace declust::decluster {

/// \brief Equal-cardinality range partitioning on one attribute.
///
/// Queries on the partitioning attribute go to the processors whose ranges
/// intersect the predicate; queries on any other attribute go to all
/// processors.
class RangePartitioning : public Partitioning {
 public:
  /// \param relation       relation to decluster
  /// \param schema_attrs   schema attribute ids of the partitioning
  ///                       attribute list (position 0 is the range
  ///                       partitioning attribute)
  /// \param num_nodes      number of processors
  static Result<std::unique_ptr<RangePartitioning>> Create(
      const storage::Relation& relation,
      const std::vector<storage::AttrId>& schema_attrs, int num_nodes);

  const std::string& name() const override { return name_; }
  void SitesForInto(const Predicate& q, PlanSites* out) const override;

  /// Upper boundary (inclusive) of each node's range on the partitioning
  /// attribute; node i holds values in (bound[i-1], bound[i]].
  const std::vector<Value>& upper_bounds() const { return upper_bounds_; }

  /// Nodes whose range intersects [lo, hi] on the partitioning attribute.
  std::vector<int> NodesForRange(Value lo, Value hi) const;

  /// Fill-in-place variant (clears `out` first); allocation-free once the
  /// vector has warmed to the machine size.
  void NodesForRangeInto(Value lo, Value hi, std::vector<int>* out) const;

 protected:
  std::vector<int> SitesForInsert(
      const std::vector<Value>& attr_values) const override;

 private:
  std::string name_ = "range";
  std::vector<Value> upper_bounds_;
};

}  // namespace declust::decluster
