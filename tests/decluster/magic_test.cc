#include "src/decluster/magic.h"

#include <gtest/gtest.h>

#include <set>

#include "src/workload/wisconsin.h"

namespace declust::decluster {
namespace {

using workload::MakeMix;
using workload::ResourceClass;

storage::Relation Rel(double correlation, int64_t n = 10000,
                      uint64_t seed = 23) {
  workload::WisconsinOptions o;
  o.cardinality = n;
  o.correlation = correlation;
  o.seed = seed;
  return workload::MakeWisconsin(o);
}

TEST(MagicTest, EveryTupleAssignedExactlyOnce) {
  auto rel = Rel(0.0);
  auto part = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kLow), 32);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  const NodeGroups groups = (*part)->GroupByNode();
  int64_t total = 0;
  for (int node = 0; node < (*part)->num_nodes(); ++node) {
    total += static_cast<int64_t>(groups.node(node).size());
  }
  EXPECT_EQ(total, rel.cardinality());
}

TEST(MagicTest, LowLowDirectoryIsSquarish) {
  auto rel = Rel(0.0);
  auto part = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kLow), 32);
  ASSERT_TRUE(part.ok());
  const auto& g = **part;
  const double ratio = static_cast<double>(g.scale(0).num_slices()) /
                       g.scale(1).num_slices();
  EXPECT_GT(ratio, 0.5) << g.ShapeString();
  EXPECT_LT(ratio, 2.0) << g.ShapeString();
}

TEST(MagicTest, LowModerateDirectoryIsNineToOne) {
  auto rel = Rel(0.0, 50000);
  auto part = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kModerate),
      32);
  ASSERT_TRUE(part.ok());
  const auto& g = **part;
  // Equation 4 verbatim: the dimension of the LOW query (attribute A) is
  // split ~9x more often.
  const double ratio = static_cast<double>(g.scale(0).num_slices()) /
                       g.scale(1).num_slices();
  EXPECT_GT(ratio, 4.0) << g.ShapeString();
  EXPECT_LT(ratio, 20.0) << g.ShapeString();
}

TEST(MagicTest, LowLowQueriesUseAboutSixProcessors) {
  auto rel = Rel(0.0, 100000);
  auto part = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kLow), 32);
  ASSERT_TRUE(part.ok());
  // Paper section 7.1: MAGIC uses on average ~6.39 processors for the
  // low-low mix under low correlation.
  double sum = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const Value v = t * 1999;
    sum += (*part)->AvgProcessorsFor({0, v, v});
    sum += (*part)->AvgProcessorsFor({1, v, v + 9});
  }
  const double avg = sum / (2 * trials);
  EXPECT_GT(avg, 3.0);
  EXPECT_LT(avg, 10.0);
}

TEST(MagicTest, LowModerateProcessorCounts) {
  auto rel = Rel(0.0, 100000);
  auto part = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kModerate),
      32);
  ASSERT_TRUE(part.ok());
  // Paper section 7.2: QA to ~2 processors, QB to ~16.
  double qa = 0, qb = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const Value v = t * 1999;
    qa += (*part)->AvgProcessorsFor({0, v, v});
    qb += (*part)->AvgProcessorsFor({1, v, v + 299});
  }
  qa /= trials;
  qb /= trials;
  EXPECT_LE(qa, 4.0);
  EXPECT_GE(qb, 10.0);
  EXPECT_LE(qb, 24.0);
}

TEST(MagicTest, HighCorrelationLocalizesBothQueryTypes) {
  auto rel = Rel(1.0, 100000);
  auto part = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kLow), 32);
  ASSERT_TRUE(part.ok());
  // Empty cells are skipped by the optimizer, so queries on either
  // attribute land on very few processors (paper section 4 / figure 8b).
  double qa = 0, qb = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const Value v = t * 1999;
    qa += (*part)->AvgProcessorsFor({0, v, v});
    qb += (*part)->AvgProcessorsFor({1, v, v + 9});
  }
  EXPECT_LE(qa / trials, 2.0);
  EXPECT_LE(qb / trials, 3.0);
}

TEST(MagicTest, HighCorrelationRebalancerNarrowsSkew) {
  auto rel = Rel(1.0, 50000);
  MagicOptions no_rebalance;
  no_rebalance.rebalance = false;
  auto skewed = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kLow), 32,
      no_rebalance);
  auto balanced = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kLow), 32);
  ASSERT_TRUE(skewed.ok());
  ASSERT_TRUE(balanced.ok());
  auto [smax, smin] = (*skewed)->LoadExtremes();
  auto [bmax, bmin] = (*balanced)->LoadExtremes();
  EXPECT_LT(bmax - bmin, smax - smin);
  EXPECT_GT((*balanced)->rebalance_result().swaps, 0);
}

TEST(MagicTest, SitesCoverAllQualifyingTuples) {
  auto rel = Rel(0.0, 20000);
  auto part = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kModerate),
      16);
  ASSERT_TRUE(part.ok());
  for (const Predicate q : {Predicate{0, 500, 529}, Predicate{1, 8000, 8299},
                            Predicate{0, 19990, 19990}}) {
    auto sites = (*part)->SitesFor(q);
    std::set<int> site_set(sites.data_nodes.begin(), sites.data_nodes.end());
    for (int64_t i = 0; i < rel.cardinality(); ++i) {
      const auto rid = static_cast<storage::RecordId>(i);
      const auto v = rel.value(rid, q.attr);
      if (v >= q.lo && v <= q.hi) {
        EXPECT_TRUE(site_set.count((*part)->NodeOf(rid)))
            << "tuple " << i << " on node " << (*part)->NodeOf(rid)
            << " not covered";
      }
    }
  }
}

TEST(MagicTest, PlanningCostScalesWithPredicateWidth) {
  auto rel = Rel(0.0, 20000);
  auto part = MagicPartitioning::Create(
      rel, {0, 1}, MakeMix(ResourceClass::kLow, ResourceClass::kLow), 16);
  ASSERT_TRUE(part.ok());
  // A narrow predicate probes one slice of the directory; a wide predicate
  // probes many more cells and must cost more.
  const double narrow = (*part)->PlanningCpuMs({0, 1, 1});
  const double wide = (*part)->PlanningCpuMs({0, 0, 19999});
  EXPECT_GT(narrow, 0.0);
  EXPECT_GT(wide, narrow * 2);
  // Both stay below the equation-1 worst case (linear scan of half the
  // directory).
  const auto cells =
      static_cast<double>((*part)->num_cells());
  EXPECT_LE(wide, cells * (10.0 / 3000.0) + 1.0);
}

TEST(MagicTest, SingleAttributeMagicDegeneratesToRangeLike) {
  auto rel = Rel(0.0, 5000);
  workload::Workload w;
  workload::QueryClassSpec q;
  q.attr = 0;
  q.tuples = 10;
  q.frequency = 1.0;
  q.declared_cpu_ms = 2.0;
  w.classes = {q};
  auto part = MagicPartitioning::Create(rel, {0}, w, 8);
  ASSERT_TRUE(part.ok()) << part.status().ToString();
  // K = 1: round-robin assignment of slices; a narrow query maps to 1-2
  // fragments.
  auto sites = (*part)->SitesFor({0, 1000, 1009});
  EXPECT_LE(sites.data_nodes.size(), 3u);
}

TEST(MagicTest, InvalidInputsRejected) {
  auto rel = Rel(0.0, 100);
  auto w = MakeMix(ResourceClass::kLow, ResourceClass::kLow);
  EXPECT_TRUE(MagicPartitioning::Create(rel, {}, w, 8)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MagicPartitioning::Create(rel, {0, 1}, w, 0)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MagicPartitioning::Create(rel, {0, 99}, w, 8)
                  .status()
                  .IsOutOfRange());
}

}  // namespace
}  // namespace declust::decluster
