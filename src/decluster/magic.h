// MAGIC declustering (paper section 3): build a grid directory with the
// grid-file algorithm (fragment cardinality and split frequencies from the
// planner), assign directory entries to processors, and rebalance under
// attribute correlation. Only the directory's linear scales outlive the
// build: the grid file's buckets are scaffolding for finding the cuts.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/decluster/assignment.h"
#include "src/decluster/magic_planner.h"
#include "src/decluster/rebalance.h"
#include "src/decluster/strategy.h"
#include "src/grid/linear_scale.h"

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
    return "grid " + ShapeString();
  }
  void SitesForInto(const Predicate& q, PlanSites* out) const override;
  double PlanningCpuMs(const Predicate& q) const override;

  const MagicPlan& plan() const { return plan_; }
  /// The grid directory's linear scale along dimension `d`.
  const grid::LinearScale& scale(int d) const {
    return scales_[static_cast<size_t>(d)];
  }
  /// Slices per dimension: the directory's shape, row-major.
  const std::vector<int>& dims() const { return dims_; }
  /// Directory cells (the product of dims()).
  int64_t num_cells() const {
    return static_cast<int64_t>(cell_weights_.size());
  }
  /// "62x61"-style directory shape.
  std::string ShapeString() const;
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

 protected:
  std::vector<int> SitesForInsert(
      const std::vector<Value>& attr_values) const override {
    // InsertSites checked the arity.
    return {cell_nodes_[static_cast<size_t>(CellOf(attr_values.data()))]};
  }

 private:
  // Row-major directory cell of the dims().size() values at `point`.
  int64_t CellOf(const Value* point) const;
  // Bottleneck throughput proxy of a candidate cell->processor assignment:
  // (max processor load fraction) x (I/O pages per average query). Lower is
  // better. Used to arbitrate between rebalancing variants.
  double ScoreAssignment(const std::vector<int>& cell_nodes, int num_nodes,
                         const workload::Workload& workload, int k) const;
  // Distinct processors a predicate's non-empty cells map to under a
  // candidate assignment, written sorted into `nodes`.
  void NodesForPredicate(const Predicate& q,
                         const std::vector<int>& cell_nodes,
                         std::vector<int>* nodes) const;

  // The non-empty cells of each slice, per dimension, ascending: slice s of
  // dimension d holds cells[start[s], start[s + 1]). The cells a predicate
  // on dimension d must visit are those of its slice range, which is one
  // contiguous run.
  struct SliceCells {
    std::vector<int> start;
    std::vector<int64_t> cells;
  };

  std::string name_ = "MAGIC";
  MagicPlan plan_;
  MagicOptions options_;
  // All MAGIC reads of its grid file: the linear scales, once they are
  // final, and the directory shape they give.
  std::vector<grid::LinearScale> scales_;
  std::vector<int> dims_;
  std::vector<int> cell_nodes_;
  std::vector<int64_t> cell_weights_;
  std::vector<SliceCells> slice_cells_;
  std::vector<Value> domain_lo_;
  std::vector<Value> domain_hi_;
  RebalanceResult rebalance_result_;
};

}  // namespace declust::decluster
