// Coordinate Modulo Declustering (CMD) — a contemporaneous multi-attribute
// declustering strategy (Li, Srivastava, Rotem, 1992), included as an
// additional baseline. Each dimension is cut into P equi-depth slices and
// cell (i_1, ..., i_K) is assigned to processor (i_1 + ... + i_K) mod P.
//
// CMD maximizes parallelism for multi-attribute box queries (any PxP
// sub-grid touches every processor exactly once per row), which is the
// opposite philosophy to MAGIC's localization: a predicate on a SINGLE
// attribute leaves the other dimensions unconstrained and therefore visits
// every processor — instructive to contrast on the paper's workload.
#pragma once

#include <memory>

#include "src/decluster/strategy.h"
#include "src/grid/linear_scale.h"

namespace declust::decluster {

/// \brief CMD partitioning on K >= 1 attributes.
class CmdPartitioning : public Partitioning {
 public:
  static Result<std::unique_ptr<CmdPartitioning>> Create(
      const storage::Relation& relation,
      const std::vector<storage::AttrId>& schema_attrs, int num_nodes);

  const std::string& name() const override { return name_; }
  void SitesForInto(const Predicate& q, PlanSites* out) const override;

  /// Processor of the cell with the given slice coordinates.
  int NodeOfCell(const std::vector<int>& coords) const;

  const grid::LinearScale& scale(int dim) const {
    return scales_[static_cast<size_t>(dim)];
  }

  /// Processors overlapped by a full box predicate (one [lo,hi] per
  /// dimension) — the query type CMD is designed for.
  std::vector<int> NodesForBox(const std::vector<Value>& lo,
                               const std::vector<Value>& hi) const;

 protected:
  std::vector<int> SitesForInsert(
      const std::vector<Value>& attr_values) const override;

 private:
  std::string name_ = "CMD";
  int num_nodes_cached_ = 0;
  std::vector<grid::LinearScale> scales_;
};

}  // namespace declust::decluster
