// MAGIC declustering (paper section 3): build a grid directory with the
// grid-file algorithm (fragment cardinality and split frequencies from the
// planner), assign directory entries to processors, and rebalance under
// attribute correlation.
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <utility>

#include "src/decluster/assignment.h"
#include "src/decluster/magic_planner.h"
#include "src/decluster/rebalance.h"
#include "src/decluster/strategy.h"
#include "src/grid/grid_file.h"

namespace declust::decluster {

/// \brief Options for MAGIC declustering.
struct MagicOptions {
  CostModel cost_model;
  /// Run the section-4 slice-swap rebalancer after assignment.
  bool rebalance = true;
  /// Cap on rebalancer swaps.
  int max_rebalance_swaps = 500;
  /// Directory-size guard: the grid file may grow to at most this factor
  /// times the ideal fragment count (cardinality / FC). Bounds directory
  /// blow-up under highly correlated attributes.
  int64_t max_grid_cells_factor = 8;
};

/// \brief MAGIC partitioning of a relation on K attributes.
class MagicPartitioning : public Partitioning {
 public:

  /// \param schema_attrs the K partitioning attributes (schema ids), in the
  ///        same order the workload's query classes reference them.
  static Result<std::unique_ptr<MagicPartitioning>> Create(
      const storage::Relation& relation,
      const std::vector<storage::AttrId>& schema_attrs,
      const workload::Workload& workload, int num_nodes,
      MagicOptions options = MagicOptions());

  const std::string& name() const override { return name_; }
  std::string DiagnosticNote() const override {
    return "grid " + grid_->ShapeString();
  }
  void SitesForInto(const Predicate& q, PlanSites* out) const override;
  double PlanningCpuMs(const Predicate& q) const override;
  std::vector<int> InsertSites(
      const std::vector<Value>& attr_values) const override {
    const int64_t cell = grid_->CellOfPoint(attr_values);
    return {cell_nodes_[static_cast<size_t>(cell)]};
  }

  const MagicPlan& plan() const { return plan_; }
  const grid::GridFile& grid() const { return *grid_; }
  /// Processor of each directory cell.
  const std::vector<int>& cell_nodes() const { return cell_nodes_; }
  /// Tuples per directory cell.
  const std::vector<int64_t>& cell_weights() const { return cell_weights_; }
  const RebalanceResult& rebalance_result() const { return rebalance_result_; }

  /// Average number of processors the optimizer selects for one query of
  /// each workload class (diagnostic used by the grid-shapes table).
  double AvgProcessorsFor(const Predicate& q) const {
    return static_cast<double>(SitesFor(q).data_nodes.size());
  }

 private:
  // Bottleneck throughput proxy of a candidate cell->processor assignment:
  // (max processor load fraction) x (I/O pages per average query). Lower is
  // better. Used to arbitrate between rebalancing variants.
  double ScoreAssignment(const std::vector<int>& cell_nodes, int num_nodes,
                         const workload::Workload& workload, int k) const;
  // Distinct processors a predicate's non-empty cells map to under a
  // candidate assignment.
  int NodesForPredicate(const Predicate& q,
                        const std::vector<int>& cell_nodes) const;
  // Calls fn(cell) for each directory cell the predicate's box overlaps:
  // its range on q.attr, the whole domain on every other dimension.
  template <typename Fn>
  void ForEachCellOfPredicate(const Predicate& q, Fn&& fn) const {
    const auto k = static_cast<size_t>(grid_->num_dims());
    std::array<Value, grid::GridFile::kMaxDims> lo;
    std::array<Value, grid::GridFile::kMaxDims> hi;
    lo.fill(std::numeric_limits<Value>::min());
    hi.fill(std::numeric_limits<Value>::max());
    lo[static_cast<size_t>(q.attr)] = q.lo;
    hi[static_cast<size_t>(q.attr)] = q.hi;
    grid_->ForEachCellOverlapping({lo.data(), k}, {hi.data(), k},
                                  std::forward<Fn>(fn));
  }

  std::string name_ = "MAGIC";
  MagicPlan plan_;
  MagicOptions options_;
  std::unique_ptr<grid::GridFile> grid_;
  std::vector<int> cell_nodes_;
  std::vector<int64_t> cell_weights_;
  std::vector<Value> domain_lo_;
  std::vector<Value> domain_hi_;
  RebalanceResult rebalance_result_;
};

}  // namespace declust::decluster
