// Single-attribute hash declustering (Gamma/Teradata style), included as an
// additional baseline: exact-match queries on the partitioning attribute go
// to one processor, everything else goes everywhere.
#pragma once

#include <memory>

#include "src/decluster/strategy.h"

namespace declust::decluster {

/// \brief Hash partitioning on one attribute.
class HashPartitioning : public Partitioning {
 public:
  static Result<std::unique_ptr<HashPartitioning>> Create(
      const storage::Relation& relation,
      const std::vector<storage::AttrId>& schema_attrs, int num_nodes);

  const std::string& name() const override { return name_; }
  void SitesForInto(const Predicate& q, PlanSites* out) const override;

  /// The hash function used (exposed for tests).
  static int HashToNode(Value v, int num_nodes);

 protected:
  std::vector<int> SitesForInsert(
      const std::vector<Value>& attr_values) const override {
    return {HashToNode(attr_values[0], num_nodes())};
  }

 private:
  std::string name_ = "hash";
};

}  // namespace declust::decluster
