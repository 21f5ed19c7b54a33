#include "src/decluster/cmd.h"

#include <gtest/gtest.h>

#include <set>

#include "src/workload/wisconsin.h"

namespace declust::decluster {
namespace {

storage::Relation Rel(int64_t n = 4000, double correlation = 0.0) {
  workload::WisconsinOptions o;
  o.cardinality = n;
  o.correlation = correlation;
  o.seed = 41;
  return workload::MakeWisconsin(o);
}

TEST(CmdTest, EveryTupleAssignedOnce) {
  auto rel = Rel();
  auto part = CmdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  const NodeGroups groups = (*part)->GroupByNode();
  int64_t total = 0;
  for (int node = 0; node < (*part)->num_nodes(); ++node) {
    total += static_cast<int64_t>(groups.node(node).size());
  }
  EXPECT_EQ(total, rel.cardinality());
}

TEST(CmdTest, LoadIsWellBalanced) {
  auto rel = Rel(8000);
  auto part = CmdPartitioning::Create(rel, {0, 1}, 16);
  ASSERT_TRUE(part.ok());
  auto [mx, mn] = (*part)->LoadExtremes();
  // Equi-depth slices + modulo assignment: close to 500 per node.
  EXPECT_LT(mx, 700);
  EXPECT_GT(mn, 300);
}

TEST(CmdTest, CellAssignmentIsCoordinateSum) {
  auto rel = Rel();
  auto part = CmdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ((*part)->NodeOfCell({0, 0}), 0);
  EXPECT_EQ((*part)->NodeOfCell({3, 4}), 7);
  EXPECT_EQ((*part)->NodeOfCell({5, 6}), 3);  // (5+6) mod 8
}

TEST(CmdTest, SingleAttributePredicateVisitsAllProcessors) {
  // The defining contrast with MAGIC: one unconstrained dimension spans
  // all residues.
  auto rel = Rel();
  auto part = CmdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ((*part)->SitesFor({0, 100, 109}).data_nodes.size(), 8u);
  EXPECT_EQ((*part)->SitesFor({1, 100, 100}).data_nodes.size(), 8u);
}

TEST(CmdTest, BoxQueriesLocalize) {
  auto rel = Rel(8000);
  auto part = CmdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  // A box within one slice per dimension -> exactly one processor.
  // Slice 0 of each dimension covers the smallest values.
  const auto& s0 = (*part)->scale(0);
  const auto& s1 = (*part)->scale(1);
  const Value a_hi = s0.cuts().front() - 1;
  const Value b_hi = s1.cuts().front() - 1;
  auto nodes = (*part)->NodesForBox({0, 0}, {a_hi, b_hi});
  EXPECT_EQ(nodes.size(), 1u);
  EXPECT_EQ(nodes[0], 0);
  // A box spanning 2 slices in each dimension -> 3 residues (0+0..1+1).
  const Value a2 = s0.cuts()[1] - 1;
  const Value b2 = s1.cuts()[1] - 1;
  EXPECT_EQ((*part)->NodesForBox({0, 0}, {a2, b2}).size(), 3u);
}

TEST(CmdTest, WideBoxCoversEveryResidue) {
  auto rel = Rel();
  auto part = CmdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  auto nodes = (*part)->NodesForBox({0, 0}, {4000, 4000});
  EXPECT_EQ(nodes.size(), 8u);
}

TEST(CmdTest, RowsContainEveryProcessorEqually) {
  // CMD's signature property: within any row of P consecutive cells every
  // processor appears exactly once.
  auto rel = Rel();
  auto part = CmdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  for (int i = 0; i < 8; ++i) {
    std::set<int> procs;
    for (int j = 0; j < 8; ++j) procs.insert((*part)->NodeOfCell({i, j}));
    EXPECT_EQ(procs.size(), 8u) << "row " << i;
  }
}

TEST(CmdTest, InvalidInputsRejected) {
  auto rel = Rel(100);
  EXPECT_TRUE(
      CmdPartitioning::Create(rel, {}, 8).status().IsInvalidArgument());
  EXPECT_TRUE(
      CmdPartitioning::Create(rel, {0, 1}, 0).status().IsInvalidArgument());
  EXPECT_TRUE(
      CmdPartitioning::Create(rel, {0, 99}, 8).status().IsOutOfRange());
}

TEST(CmdTest, CorrelatedDataStaysBalanced) {
  // Diagonal data: cell (i, i) -> proc (2i) mod P. With equi-depth slices
  // every diagonal cell has ~n/P tuples, so even-numbered processors get
  // the load for even P — a known CMD weakness worth pinning down.
  auto rel = Rel(8000, 1.0);
  auto part = CmdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  auto [mx, mn] = (*part)->LoadExtremes();
  // Documented skew: odd residues empty under perfect correlation.
  EXPECT_EQ(mn, 0);
  EXPECT_GT(mx, 1500);
}

}  // namespace
}  // namespace declust::decluster
