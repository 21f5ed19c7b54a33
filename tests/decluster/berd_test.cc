#include "src/decluster/berd.h"

#include <gtest/gtest.h>

#include <set>

#include "src/workload/wisconsin.h"

namespace declust::decluster {
namespace {

storage::Relation Rel(double correlation, int64_t n = 2000) {
  workload::WisconsinOptions o;
  o.cardinality = n;
  o.correlation = correlation;
  o.seed = 17;
  return workload::MakeWisconsin(o);
}

TEST(BerdTest, DataPlacementMatchesPrimaryRange) {
  auto rel = Rel(0.0);
  auto part = BerdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  // Equal-cardinality fragments, value-disjoint on attribute A.
  auto [mx, mn] = (*part)->LoadExtremes();
  EXPECT_EQ(mx, 250);
  EXPECT_EQ(mn, 250);
  auto sites = (*part)->SitesFor({0, 5, 5});
  EXPECT_EQ(sites.data_nodes.size(), 1u);
  EXPECT_TRUE(sites.aux_nodes.empty());
}

TEST(BerdTest, PlacementEqualsAFreshRangePartitioning) {
  for (double correlation : {0.0, 1.0}) {
    auto rel = Rel(correlation);
    auto berd = BerdPartitioning::Create(rel, {0, 1}, 8);
    auto range = RangePartitioning::Create(rel, {0, 1}, 8);
    ASSERT_TRUE(berd.ok());
    ASSERT_TRUE(range.ok());
    EXPECT_EQ((*berd)->num_attrs(), (*range)->num_attrs());
    EXPECT_EQ((*berd)->node_counts(), (*range)->node_counts());
    EXPECT_EQ((*berd)->GroupByNode().rids, (*range)->GroupByNode().rids);
    for (int64_t i = 0; i < rel.cardinality(); ++i) {
      const auto rid = static_cast<storage::RecordId>(i);
      ASSERT_EQ((*berd)->NodeOf(rid), (*range)->NodeOf(rid)) << "rid " << i;
    }
    // The primary's bounds still route attribute-0 queries.
    EXPECT_EQ((*berd)->SitesFor({0, 5, 900}).data_nodes,
              (*range)->SitesFor({0, 5, 900}).data_nodes);
  }
}

TEST(BerdTest, SecondaryQueryUsesAuxPhase) {
  auto rel = Rel(0.0);
  auto part = BerdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  EXPECT_FALSE((*part)->NeedsAuxPhase({0, 1, 2}));
  EXPECT_TRUE((*part)->NeedsAuxPhase({1, 1, 2}));
  auto sites = (*part)->SitesFor({1, 100, 109});
  // Phase 1: a narrow B-range lies in one (rarely two) aux fragments.
  EXPECT_GE(sites.aux_nodes.size(), 1u);
  EXPECT_LE(sites.aux_nodes.size(), 2u);
  // Phase 2: with low correlation, 10 tuples live on up to 10 processors.
  EXPECT_GE(sites.data_nodes.size(), 4u);
  EXPECT_LE(sites.data_nodes.size(), 10u);
}

TEST(BerdTest, DataNodesAreExactlyTheHomesOfQualifyingTuples) {
  auto rel = Rel(0.0);
  auto part = BerdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  const Predicate q{1, 500, 529};
  auto sites = (*part)->SitesFor(q);
  std::set<int> expected;
  for (int64_t i = 0; i < rel.cardinality(); ++i) {
    const auto rid = static_cast<storage::RecordId>(i);
    const auto b = rel.value(rid, 1);
    if (b >= q.lo && b <= q.hi) expected.insert((*part)->NodeOf(rid));
  }
  std::set<int> got(sites.data_nodes.begin(), sites.data_nodes.end());
  EXPECT_EQ(got, expected);
}

TEST(BerdTest, HighCorrelationLocalizesSecondaryQueries) {
  auto rel = Rel(1.0);
  auto part = BerdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  // With unique2 == unique1, a B-range maps to the same tuples as an
  // A-range, which the primary range partitioning keeps on 1 processor;
  // moreover the aux fragment for that range lives on that processor too
  // (both partitionings chunk the same sorted order).
  auto sites = (*part)->SitesFor({1, 100, 109});
  EXPECT_EQ(sites.data_nodes.size(), 1u);
  ASSERT_EQ(sites.aux_nodes.size(), 1u);
  EXPECT_EQ(sites.aux_nodes[0], sites.data_nodes[0]);
}

TEST(BerdTest, AuxCostReflectsTreeShape) {
  auto rel = Rel(0.0, 20000);
  BerdOptions opts;
  opts.aux_tree_fanout = 64;
  auto part = BerdPartitioning::Create(rel, {0, 1}, 8, opts);
  ASSERT_TRUE(part.ok());
  auto sites = (*part)->SitesFor({1, 4000, 4099});
  ASSERT_GE(sites.aux_nodes.size(), 1u);
  const auto cost = (*part)->AuxCost(sites.aux_nodes[0], 4000, 4099);
  EXPECT_GE(cost.index_pages, 2);  // 2500 entries at fanout 64: height >= 2
  EXPECT_GE(cost.leaf_pages, 1);
  EXPECT_GE(cost.entries, 1);
  // All qualifying entries found across the aux nodes.
  int64_t entries = 0;
  for (int n : sites.aux_nodes) {
    entries += (*part)->AuxCost(n, 4000, 4099).entries;
  }
  EXPECT_EQ(entries, 100);
}

TEST(BerdTest, AuxFragmentsAreEquallySized) {
  auto rel = Rel(0.0);
  auto part = BerdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  // Full-domain aux lookup on each node returns its fragment size.
  int64_t total = 0;
  for (int n = 0; n < 8; ++n) {
    const auto cost = (*part)->AuxCost(n, INT64_MIN, INT64_MAX);
    EXPECT_EQ(cost.entries, 250);
    total += cost.entries;
  }
  EXPECT_EQ(total, rel.cardinality());
}

TEST(BerdTest, RequiresSecondaryAttribute) {
  auto rel = Rel(0.0);
  EXPECT_TRUE(
      BerdPartitioning::Create(rel, {0}, 8).status().IsInvalidArgument());
}

TEST(BerdTest, WideSecondaryRangeSpansManyAuxAndDataNodes) {
  auto rel = Rel(0.0);
  auto part = BerdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  auto sites = (*part)->SitesFor({1, 0, 1999});
  EXPECT_EQ(sites.aux_nodes.size(), 8u);
  EXPECT_EQ(sites.data_nodes.size(), 8u);
}

}  // namespace
}  // namespace declust::decluster
