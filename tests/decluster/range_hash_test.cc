#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>

#include "src/decluster/hash.h"
#include "src/decluster/range.h"
#include "src/storage/schema.h"
#include "src/workload/wisconsin.h"

namespace declust::decluster {
namespace {

storage::Relation SmallRel(int64_t n = 1000, uint64_t seed = 11) {
  workload::WisconsinOptions o;
  o.cardinality = n;
  o.seed = seed;
  return workload::MakeWisconsin(o);
}

TEST(RangeTest, EveryTupleAssignedExactlyOnce) {
  auto rel = SmallRel();
  auto part = RangePartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  const NodeGroups groups = (*part)->GroupByNode();
  int64_t total = 0;
  for (int node = 0; node < (*part)->num_nodes(); ++node) {
    total += static_cast<int64_t>(groups.node(node).size());
  }
  EXPECT_EQ(total, rel.cardinality());
  EXPECT_EQ((*part)->num_nodes(), 8);
}

TEST(RangeTest, HeavyTiesMatchAnIndirectSortOfRecordIds) {
  // Partitioning values repeat heavily (a permutation mod 7), so chunk
  // boundaries fall inside runs of equal keys and the order of ties decides
  // which node each tuple lands on. The decorated key-only sort must place
  // ties exactly where an indirect sort of the record ids by value does.
  storage::Relation rel("ties", storage::Schema({{"a"}, {"b"}}));
  for (int64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(rel.Append({(i * 1237) % 3001 % 7, i}).ok());
  }
  for (const int nodes : {3, 5, 8}) {
    auto part = RangePartitioning::Create(rel, {0, 1}, nodes);
    ASSERT_TRUE(part.ok());
    std::vector<RecordId> order(static_cast<size_t>(rel.cardinality()));
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](RecordId x, RecordId y) {
      return rel.value(x, 0) < rel.value(y, 0);
    });
    const auto n = static_cast<int64_t>(order.size());
    for (int node = 0; node < nodes; ++node) {
      const int64_t begin = n * node / nodes;
      const int64_t end = n * (node + 1) / nodes;
      for (int64_t i = begin; i < end; ++i) {
        EXPECT_EQ((*part)->NodeOf(order[static_cast<size_t>(i)]), node);
      }
      if (node + 1 < nodes) {
        EXPECT_EQ((*part)->upper_bounds()[static_cast<size_t>(node)],
                  rel.value(order[static_cast<size_t>(end - 1)], 0));
      }
    }
  }
}

TEST(RangeTest, EqualCardinalityFragments) {
  auto rel = SmallRel();
  auto part = RangePartitioning::Create(rel, {0}, 8);
  ASSERT_TRUE(part.ok());
  auto [mx, mn] = (*part)->LoadExtremes();
  EXPECT_EQ(mx, 125);
  EXPECT_EQ(mn, 125);
}

TEST(RangeTest, FragmentsAreValueDisjoint) {
  auto rel = SmallRel();
  auto part = RangePartitioning::Create(rel, {0}, 4);
  ASSERT_TRUE(part.ok());
  // Max attr value on node i < min attr value on node i+1.
  std::vector<int64_t> mins(4, INT64_MAX), maxs(4, INT64_MIN);
  const NodeGroups groups = (*part)->GroupByNode();
  for (int node = 0; node < 4; ++node) {
    for (auto rid : groups.node(node)) {
      const auto v = rel.value(rid, 0);
      mins[static_cast<size_t>(node)] =
          std::min(mins[static_cast<size_t>(node)], v);
      maxs[static_cast<size_t>(node)] =
          std::max(maxs[static_cast<size_t>(node)], v);
    }
  }
  for (int node = 0; node + 1 < 4; ++node) {
    EXPECT_LT(maxs[static_cast<size_t>(node)],
              mins[static_cast<size_t>(node + 1)]);
  }
}

TEST(RangeTest, ExactMatchOnPartitioningAttrGoesToOneNode) {
  auto rel = SmallRel();
  auto part = RangePartitioning::Create(rel, {0}, 8);
  ASSERT_TRUE(part.ok());
  const NodeGroups groups = (*part)->GroupByNode();
  for (int64_t v : {0, 123, 500, 999}) {
    auto sites = (*part)->SitesFor({0, v, v});
    ASSERT_EQ(sites.data_nodes.size(), 1u) << v;
    EXPECT_TRUE(sites.aux_nodes.empty());
    // The chosen node actually owns the tuple with that value.
    bool found = false;
    for (auto rid : groups.node(sites.data_nodes[0])) {
      if (rel.value(rid, 0) == v) found = true;
    }
    EXPECT_TRUE(found) << v;
  }
}

TEST(RangeTest, RangeOnPartitioningAttrHitsExactlyCoveringNodes) {
  auto rel = SmallRel();
  auto part = RangePartitioning::Create(rel, {0}, 8);
  ASSERT_TRUE(part.ok());
  // 1000 tuples over 8 nodes: 125 values per node. A range of width 10
  // inside one node's range -> 1 node; straddling a boundary -> 2.
  auto inside = (*part)->SitesFor({0, 10, 19});
  EXPECT_EQ(inside.data_nodes.size(), 1u);
  auto straddle = (*part)->SitesFor({0, 120, 130});
  EXPECT_EQ(straddle.data_nodes.size(), 2u);
  auto all = (*part)->SitesFor({0, 0, 999});
  EXPECT_EQ(all.data_nodes.size(), 8u);
}

TEST(RangeTest, QueryOnOtherAttributeGoesEverywhere) {
  auto rel = SmallRel();
  auto part = RangePartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  auto sites = (*part)->SitesFor({1, 100, 109});
  EXPECT_EQ(sites.data_nodes.size(), 8u);
}

TEST(RangeTest, InvalidInputsRejected) {
  auto rel = SmallRel();
  EXPECT_TRUE(RangePartitioning::Create(rel, {0}, 0).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RangePartitioning::Create(rel, {}, 4).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(RangePartitioning::Create(rel, {99}, 4).status().IsOutOfRange());
  storage::Relation empty("e", rel.schema());
  EXPECT_TRUE(RangePartitioning::Create(empty, {0}, 4)
                  .status()
                  .IsFailedPrecondition());
}

TEST(HashTest, AssignmentIsBalancedAndTotal) {
  auto rel = SmallRel(10000);
  auto part = HashPartitioning::Create(rel, {0}, 16);
  ASSERT_TRUE(part.ok());
  const NodeGroups groups = (*part)->GroupByNode();
  int64_t total = 0;
  for (int node = 0; node < (*part)->num_nodes(); ++node) {
    const auto recs = groups.node(node);
    total += static_cast<int64_t>(recs.size());
    // Within ~4x of perfect balance (hashing a permutation).
    EXPECT_GT(recs.size(), 300u);
    EXPECT_LT(recs.size(), 1200u);
  }
  EXPECT_EQ(total, 10000);
}

TEST(HashTest, ExactMatchRoutesToHomeNode) {
  auto rel = SmallRel();
  auto part = HashPartitioning::Create(rel, {0}, 8);
  ASSERT_TRUE(part.ok());
  for (int64_t v : {1, 77, 998}) {
    auto sites = (*part)->SitesFor({0, v, v});
    ASSERT_EQ(sites.data_nodes.size(), 1u);
    EXPECT_EQ(sites.data_nodes[0], HashPartitioning::HashToNode(v, 8));
  }
}

TEST(HashTest, RangeQueriesGoEverywhere) {
  auto rel = SmallRel();
  auto part = HashPartitioning::Create(rel, {0}, 8);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ((*part)->SitesFor({0, 10, 20}).data_nodes.size(), 8u);
  EXPECT_EQ((*part)->SitesFor({1, 5, 5}).data_nodes.size(), 8u);
}

}  // namespace
}  // namespace declust::decluster
