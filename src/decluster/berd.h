// Bubba's Extended-Range Declustering (paper section 2).
//
// The relation is range partitioned on the primary attribute. For each
// secondary partitioning attribute an auxiliary "relation" is built from
// (attribute value, tuple id, home processor), range partitioned on the
// value across the processors, and organized as a B-tree at each processor.
//
// A query on the primary attribute behaves like plain range partitioning.
// A query on a secondary attribute runs in two sequential phases:
//   1. it is sent to the processors holding the relevant auxiliary
//      fragments, which search their B-trees for the qualifying tuples'
//      home processors;
//   2. it is then sent to those home processors to fetch the tuples.
#pragma once

#include <memory>

#include "src/decluster/range.h"
#include "src/decluster/strategy.h"
#include "src/storage/btree.h"

namespace declust::decluster {

/// \brief Cost-relevant facts about one auxiliary-fragment lookup.
/// Page counts are 64-bit: at 100M tuples an aux tree's leaf count exceeds
/// what a 32-bit page*bytes product can carry downstream.
struct AuxLookupCost {
  /// Random index page reads (B-tree descent).
  int64_t index_pages = 0;
  /// Sequential leaf pages scanned for the range.
  int64_t leaf_pages = 0;
  /// Qualifying auxiliary entries found on this processor.
  int64_t entries = 0;
};

/// \brief Options for BERD declustering.
struct BerdOptions {
  /// Entries per auxiliary B-tree page. An auxiliary entry is an
  /// (attribute value, tuple id, processor) triple of ~16 bytes, so an
  /// 8 KB page holds ~512 entries.
  int aux_tree_fanout = 512;
};

/// \brief BERD declustering with one secondary partitioning attribute.
class BerdPartitioning : public Partitioning {
 public:

  /// \param schema_attrs partitioning attributes; [0] is the primary
  ///        (range) attribute, [1] the secondary (auxiliary) attribute.
  static Result<std::unique_ptr<BerdPartitioning>> Create(
      const storage::Relation& relation,
      const std::vector<storage::AttrId>& schema_attrs, int num_nodes,
      BerdOptions options = BerdOptions());

  const std::string& name() const override { return name_; }
  void SitesForInto(const Predicate& q, PlanSites* out) const override;

  /// True when `q` must run the two-phase (auxiliary) protocol.
  bool NeedsAuxPhase(const Predicate& q) const { return q.attr == 1; }

  /// Page-access cost of the auxiliary lookup at `node` for [lo, hi] on the
  /// secondary attribute.
  AuxLookupCost AuxCost(int node, Value lo, Value hi) const;

  /// Aux-relation fragment boundaries (upper bounds per node), for tests.
  const std::vector<Value>& aux_upper_bounds() const {
    return aux_upper_bounds_;
  }

 protected:
  std::vector<int> SitesForInsert(
      const std::vector<Value>& attr_values) const override;

 private:
  std::string name_ = "BERD";
  std::unique_ptr<RangePartitioning> primary_;
  storage::AttrId secondary_attr_ = 0;
  // Auxiliary fragments: per node, a B-tree of (secondary value -> rid).
  std::vector<storage::BPlusTree> aux_trees_;
  std::vector<Value> aux_upper_bounds_;
};

}  // namespace declust::decluster
