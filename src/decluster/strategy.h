// Common interface of the declustering strategies (range, hash, BERD,
// MAGIC): each strategy maps every tuple of a relation to a home processor
// and tells the optimizer which processors a selection predicate must visit.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/storage/relation.h"
#include "src/storage/types.h"

namespace declust::decluster {

using storage::RecordId;
using storage::Value;

/// \brief A selection predicate: `attr` in [lo, hi] (inclusive).
/// `attr` indexes the *partitioning attribute list* (0 = first partitioning
/// attribute), not the schema.
struct Predicate {
  int attr = 0;
  Value lo = 0;
  Value hi = 0;
};

/// \brief The processors a query must visit.
///
/// For most strategies only `data_nodes` is populated. For BERD queries on a
/// secondary partitioning attribute, `aux_nodes` lists the processors whose
/// auxiliary-relation fragments must be searched first (phase 1); the data
/// nodes are visited afterwards (phase 2).
struct PlanSites {
  std::vector<int> aux_nodes;
  std::vector<int> data_nodes;

  void clear() {
    aux_nodes.clear();
    data_nodes.clear();
  }
};

/// \brief Record ids grouped by home node, in compressed sparse rows: node
/// n's records, ascending, are rids[offsets[n], offsets[n + 1]).
struct NodeGroups {
  std::vector<int64_t> offsets;
  std::vector<RecordId> rids;

  std::span<const RecordId> node(int n) const {
    const auto begin = offsets[static_cast<size_t>(n)];
    const auto end = offsets[static_cast<size_t>(n) + 1];
    return std::span<const RecordId>(rids).subspan(
        static_cast<size_t>(begin), static_cast<size_t>(end - begin));
  }
};

/// \brief A completed declustering of one relation across P processors.
///
/// The one per-tuple array it keeps is each record's home node; per node
/// it keeps only the tuple count. A caller that walks a node's records
/// (the catalog build, the result oracle) groups them once per call with
/// GroupByNode.
class Partitioning {
 public:
  virtual ~Partitioning() = default;

  /// Strategy name for reports ("range", "BERD", "MAGIC", ...).
  virtual const std::string& name() const = 0;

  /// One-line strategy-specific diagnostic for reports (e.g. MAGIC's grid
  /// shape). Empty by default; avoids RTTI in the experiment harness.
  virtual std::string DiagnosticNote() const { return ""; }

  int num_nodes() const { return static_cast<int>(node_counts_.size()); }

  /// Number of partitioning attributes (the arity InsertSites expects).
  int num_attrs() const { return num_attrs_; }

  /// Tuples homed at each node.
  const std::vector<int64_t>& node_counts() const { return node_counts_; }

  /// The record ids of every node, ascending, from one counting pass over
  /// the record homes: O(cardinality) time and memory per call, so build
  /// it once per build or audit, never per query.
  NodeGroups GroupByNode() const;

  /// Home node of one record.
  int NodeOf(RecordId rid) const { return record_home_[rid]; }

  /// Processors a query with this predicate must visit. Convenience
  /// wrapper; the engine's hot path calls SitesForInto with a reused
  /// per-terminal scratch object instead.
  PlanSites SitesFor(const Predicate& q) const {
    PlanSites sites;
    SitesForInto(q, &sites);
    return sites;
  }

  /// Fills `out` (cleared first) with the processors a query with this
  /// predicate must visit. Strategies whose site computation is itself
  /// allocation-free (range, hash) make repeated calls with a warm `out`
  /// heap-silent; the grid- and aux-tree-based strategies still allocate
  /// internally.
  virtual void SitesForInto(const Predicate& q, PlanSites* out) const = 0;

  /// CPU milliseconds the scheduler spends consulting partitioning
  /// metadata before dispatch (MAGIC's grid-directory search).
  virtual double PlanningCpuMs(const Predicate& q) const {
    (void)q;
    return 0.0;
  }

  /// Processors that must participate in inserting one new tuple whose
  /// partitioning-attribute values are `attr_values` (the data home plus
  /// any auxiliary structures that need maintenance). Used by the
  /// maintenance-cost extension bench: BERD touches its auxiliary
  /// relation's processor for every secondary attribute, the others touch
  /// only the tuple's home. InvalidArgument unless `attr_values` holds one
  /// value per partitioning attribute.
  Result<std::vector<int>> InsertSites(
      const std::vector<Value>& attr_values) const {
    if (static_cast<int>(attr_values.size()) != num_attrs_) {
      return Status::InvalidArgument(
          "insert has " + std::to_string(attr_values.size()) +
          " attribute values, the partitioning has " +
          std::to_string(num_attrs_));
    }
    return SitesForInsert(attr_values);
  }

  /// Max/min tuples per node (load-skew diagnostics).
  std::pair<int64_t, int64_t> LoadExtremes() const;

 protected:
  /// Takes a per-record node map as the record homes and counts each
  /// node's tuples, for a partitioning on `num_attrs` attributes.
  void SetAssignment(int num_nodes, int num_attrs,
                     std::vector<int> record_home);

  /// Takes `from`'s assignment (record homes, per-node counts and arity),
  /// leaving `from` with none: for a strategy whose data placement is
  /// another strategy's.
  void TakeAssignment(Partitioning* from);

  /// InsertSites after its arity check: `attr_values` has num_attrs()
  /// values.
  virtual std::vector<int> SitesForInsert(
      const std::vector<Value>& attr_values) const = 0;

  std::vector<int> record_home_;
  std::vector<int64_t> node_counts_;
  int num_attrs_ = 0;
};

}  // namespace declust::decluster
