// A catalog wired from a shared CatalogTrees set must be indistinguishable
// from one that built its own trees: same extents, same index shapes, same
// footprint, same plans and rebuild copies — for plain, chained-backup,
// elastic-placement and shared-disk catalogs over range, BERD and MAGIC.
// A set built from other inputs must be refused with a Status.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/engine/catalog.h"
#include "src/exp/experiment.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

namespace declust::engine {
namespace {

constexpr int kSlices = 8;
constexpr int64_t kCardinality = 12'000;

storage::Relation MakeRel(int64_t n, uint64_t seed) {
  workload::WisconsinOptions o;
  o.cardinality = n;
  o.correlation = 0.5;
  o.seed = seed;
  return workload::MakeWisconsin(o);
}

const workload::Workload& Mix() {
  static const workload::Workload wl = workload::MakeMix(
      workload::ResourceClass::kLow, workload::ResourceClass::kModerate);
  return wl;
}

std::unique_ptr<decluster::Partitioning> Partition(
    const std::string& strategy, const storage::Relation& rel,
    int slices = kSlices) {
  auto part = exp::MakePartitioning(strategy, rel, Mix(), slices);
  EXPECT_TRUE(part.ok()) << part.status().ToString();
  return std::move(*part);
}

std::shared_ptr<const CatalogTrees> Trees(
    const storage::Relation& rel, const decluster::Partitioning& p,
    int fanout = CatalogOptions().index_fanout) {
  auto trees = CatalogTrees::Build(&rel, &p, 0, 1, fanout);
  EXPECT_TRUE(trees.ok()) << trees.status().ToString();
  return *trees;
}

void ExpectSameExtent(const storage::Extent& a, const storage::Extent& b) {
  EXPECT_EQ(a.base_page, b.base_page);
  EXPECT_EQ(a.num_pages, b.num_pages);
}

void ExpectSameStore(const FragmentStore& a, const FragmentStore& b) {
  EXPECT_EQ(a.tuple_count(), b.tuple_count());
  ExpectSameExtent(a.data_extent(), b.data_extent());
  ExpectSameExtent(a.index_b_extent(), b.index_b_extent());
  ExpectSameExtent(a.index_a_extent(), b.index_a_extent());
  EXPECT_EQ(a.clustered_index().node_count(),
            b.clustered_index().node_count());
  EXPECT_EQ(a.nonclustered_index().node_count(),
            b.nonclustered_index().node_count());
  EXPECT_EQ(a.index_memory_bytes(), b.index_memory_bytes());
}

void ExpectSamePlan(const Result<AccessPlan>& a, const Result<AccessPlan>& b,
                    const std::string& what) {
  ASSERT_EQ(a.ok(), b.ok()) << what;
  if (!a.ok()) return;
  EXPECT_EQ(a->tuples, b->tuples) << what;
  EXPECT_TRUE(std::ranges::equal(a->index_pages(), b->index_pages())) << what;
  EXPECT_TRUE(std::ranges::equal(a->data_pages(), b->data_pages())) << what;
  EXPECT_TRUE(a->data_run == b->data_run) << what;
}

// Everything a catalog exposes, compared slice by slice: extents and index
// shapes, footprint, access plans on seeded predicates over both attributes
// (index, scan, aux and backup paths) and every node's rebuild copy list.
void ExpectSameCatalog(const SystemCatalog& a, const SystemCatalog& b,
                       int64_t domain, uint64_t seed) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_slices(), b.num_slices());
  ASSERT_EQ(a.has_backups(), b.has_backups());
  EXPECT_EQ(a.memory_bytes(), b.memory_bytes());
  for (int s = 0; s < a.num_slices(); ++s) {
    ExpectSameStore(a.store(s), b.store(s));
    EXPECT_EQ(a.OwnerOf(s), b.OwnerOf(s));
    if (a.has_backups()) {
      ExpectSameStore(a.backup_store(s), b.backup_store(s));
      EXPECT_EQ(a.BackupNodeOf(s), b.BackupNodeOf(s));
    }
  }
  RandomStream rng(seed);
  for (int q = 0; q < 40; ++q) {
    const int attr = q % 2;
    const Value width = (q % 4 < 2) ? 1 : 1 + rng.UniformInt(0, domain / 20);
    const Value lo = rng.UniformInt(0, domain - 1);
    const decluster::Predicate pred{attr, lo, lo + width - 1};
    const std::string what = "query " + std::to_string(q);
    for (int s = 0; s < a.num_slices(); ++s) {
      ExpectSamePlan(a.PlanAccess(s, pred), b.PlanAccess(s, pred), what);
      ExpectSamePlan(a.PlanAccess(s, pred, /*sequential_scan=*/true),
                     b.PlanAccess(s, pred, true), what + " scan");
      ExpectSamePlan(a.PlanAuxAccess(s, pred), b.PlanAuxAccess(s, pred),
                     what + " aux");
      if (a.has_backups()) {
        ExpectSamePlan(a.PlanBackupAccess(s, pred),
                       b.PlanBackupAccess(s, pred), what + " backup");
      }
    }
  }
  if (a.has_backups()) {
    for (int n = 0; n < a.num_nodes(); ++n) {
      auto ra = a.PlanRebuild(n);
      auto rb = b.PlanRebuild(n);
      ASSERT_TRUE(ra.ok() && rb.ok());
      ASSERT_EQ(ra->size(), rb->size()) << "node " << n;
      for (size_t i = 0; i < ra->size(); ++i) {
        EXPECT_EQ((*ra)[i].src_node, (*rb)[i].src_node);
        EXPECT_TRUE((*ra)[i].src == (*rb)[i].src);
        EXPECT_TRUE((*ra)[i].dst == (*rb)[i].dst);
      }
    }
  }
}

std::unique_ptr<SystemCatalog> BuildOrDie(
    const storage::Relation& rel, const decluster::Partitioning& p,
    const CatalogOptions& opts, const PlacementSpec* placement,
    SystemCatalog* share, std::shared_ptr<const CatalogTrees> trees) {
  const hw::HwParams hw;
  auto catalog = SystemCatalog::Build(&rel, &p, 0, 1, hw, opts, placement,
                                      share, std::move(trees));
  EXPECT_TRUE(catalog.ok()) << catalog.status().ToString();
  return catalog.ok() ? std::move(*catalog) : nullptr;
}

class CatalogTreesTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CatalogTreesTest, SharedTreesMatchSelfBuiltOnEveryCatalogKind) {
  const storage::Relation rel = MakeRel(kCardinality, 7);
  const auto part = Partition(GetParam(), rel);
  const auto trees = Trees(rel, *part);

  CatalogOptions plain;
  CatalogOptions chained;
  chained.chained_backups = true;
  // Eight slices striped over five nodes, backups on the next member.
  PlacementSpec placement;
  placement.num_physical_nodes = 5;
  for (int s = 0; s < kSlices; ++s) {
    placement.owner.push_back(s % 5);
    placement.backup_owner.push_back((s + 1) % 5);
  }

  struct Case {
    const char* name;
    const CatalogOptions* opts;
    const PlacementSpec* placement;
  };
  for (const Case& c : {Case{"plain", &plain, nullptr},
                        Case{"chained", &chained, nullptr},
                        Case{"placement", &chained, &placement}}) {
    SCOPED_TRACE(c.name);
    auto own = BuildOrDie(rel, *part, *c.opts, c.placement, nullptr, nullptr);
    auto shared = BuildOrDie(rel, *part, *c.opts, c.placement, nullptr, trees);
    ASSERT_TRUE(own && shared);
    ExpectSameCatalog(*own, *shared, kCardinality, 11);
  }
}

TEST_P(CatalogTreesTest, SharedDiskCatalogMatchesSelfBuilt) {
  const storage::Relation base_rel = MakeRel(kCardinality, 7);
  const storage::Relation extra_rel = MakeRel(kCardinality / 3, 8);
  const auto base_part = Partition(GetParam(), base_rel);
  const auto extra_part = Partition(GetParam(), extra_rel);
  for (const bool chained : {false, true}) {
    SCOPED_TRACE(chained ? "chained" : "plain");
    CatalogOptions opts;
    opts.chained_backups = chained;
    auto own_base =
        BuildOrDie(base_rel, *base_part, opts, nullptr, nullptr, nullptr);
    auto own_extra = BuildOrDie(extra_rel, *extra_part, opts, nullptr,
                                own_base.get(), nullptr);
    auto shared_base = BuildOrDie(base_rel, *base_part, opts, nullptr,
                                  nullptr, Trees(base_rel, *base_part));
    auto shared_extra =
        BuildOrDie(extra_rel, *extra_part, opts, nullptr, shared_base.get(),
                   Trees(extra_rel, *extra_part));
    ASSERT_TRUE(own_base && own_extra && shared_base && shared_extra);
    ExpectSameCatalog(*own_base, *shared_base, kCardinality, 3);
    ExpectSameCatalog(*own_extra, *shared_extra, kCardinality / 3, 5);
  }
}

TEST_P(CatalogTreesTest, MigrationMovesOnlyItsOwnCatalog) {
  // Two catalogs on one tree set: a fragment copy planned and committed in
  // one of them relocates its extents alone, and the result matches a
  // self-built catalog put through the same migration.
  const storage::Relation rel = MakeRel(kCardinality, 7);
  const auto part = Partition(GetParam(), rel);
  const auto trees = Trees(rel, *part);
  CatalogOptions opts;
  opts.chained_backups = true;
  PlacementSpec placement;
  placement.num_physical_nodes = 6;
  for (int s = 0; s < kSlices; ++s) {
    placement.owner.push_back(s % 5);
    placement.backup_owner.push_back((s + 1) % 5);
  }
  auto own = BuildOrDie(rel, *part, opts, &placement, nullptr, nullptr);
  auto moved = BuildOrDie(rel, *part, opts, &placement, nullptr, trees);
  auto still = BuildOrDie(rel, *part, opts, &placement, nullptr, trees);
  ASSERT_TRUE(own && moved && still);
  for (SystemCatalog* c : {own.get(), moved.get()}) {
    auto job = c->PlanFragmentCopy(/*slice=*/2, /*dst_node=*/5,
                                   /*backup_copy=*/false,
                                   /*from_backup_source=*/false);
    ASSERT_TRUE(job.ok()) << job.status().ToString();
    c->CommitMigration(*job);
  }
  EXPECT_EQ(moved->OwnerOf(2), 5);
  EXPECT_EQ(still->OwnerOf(2), 2);
  ExpectSameCatalog(*own, *moved, kCardinality, 13);
  auto fresh = BuildOrDie(rel, *part, opts, &placement, nullptr, nullptr);
  ASSERT_TRUE(fresh);
  ExpectSameCatalog(*fresh, *still, kCardinality, 17);
}

INSTANTIATE_TEST_SUITE_P(Strategies, CatalogTreesTest,
                         ::testing::Values("range", "BERD", "MAGIC"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(CatalogTreesMismatchTest, ForeignSetsAreRefusedWithAStatus) {
  const storage::Relation rel = MakeRel(kCardinality, 7);
  const storage::Relation other_rel = MakeRel(kCardinality, 7);
  const auto part = Partition("range", rel);
  const auto twin = Partition("range", rel);
  const auto wider = Partition("range", rel, kSlices * 2);
  const hw::HwParams hw;
  const auto build = [&](std::shared_ptr<const CatalogTrees> trees,
                         storage::AttrId a = 0, storage::AttrId b = 1) {
    return SystemCatalog::Build(&rel, part.get(), a, b, hw, CatalogOptions(),
                                nullptr, nullptr, std::move(trees))
        .status();
  };
  EXPECT_TRUE(build(Trees(rel, *part)).ok());
  // Same content, but another partitioning object.
  EXPECT_TRUE(build(Trees(rel, *twin)).IsInvalidArgument());
  // Another slice count.
  const Status slices = build(Trees(rel, *wider));
  EXPECT_TRUE(slices.IsInvalidArgument());
  EXPECT_NE(slices.message().find("16 slices"), std::string::npos)
      << slices.ToString();
  // Another fanout.
  const Status fanout = build(Trees(rel, *part, 64));
  EXPECT_TRUE(fanout.IsInvalidArgument());
  EXPECT_NE(fanout.message().find("fanout 64"), std::string::npos)
      << fanout.ToString();
  // Another relation (equal content, different object).
  auto foreign = CatalogTrees::Build(&other_rel, part.get(), 0, 1,
                                     CatalogOptions().index_fanout);
  ASSERT_TRUE(foreign.ok());
  EXPECT_TRUE(build(*foreign).IsInvalidArgument());
  // Other attributes.
  EXPECT_TRUE(build(Trees(rel, *part), 1, 0).IsInvalidArgument());
}

TEST(CatalogTreesBuildTest, BadInputsAreStatuses) {
  const storage::Relation rel = MakeRel(2'000, 7);
  const auto part = Partition("range", rel);
  const auto build = [&](const storage::Relation* r,
                         const decluster::Partitioning* p, storage::AttrId b,
                         int fanout) {
    return CatalogTrees::Build(r, p, 0, b, fanout).status();
  };
  EXPECT_TRUE(build(nullptr, part.get(), 1, 340).IsInvalidArgument());
  EXPECT_TRUE(build(&rel, nullptr, 1, 340).IsInvalidArgument());
  EXPECT_TRUE(build(&rel, part.get(), 13, 340).IsOutOfRange());
  EXPECT_TRUE(build(&rel, part.get(), 1, 3).IsInvalidArgument());
}

TEST(CatalogTreesBuildTest, ParallelBuildMatchesSerial) {
  const storage::Relation rel = MakeRel(kCardinality, 7);
  const auto part = Partition("MAGIC", rel);
  auto serial = CatalogTrees::Build(&rel, part.get(), 0, 1, 340, 1);
  auto parallel = CatalogTrees::Build(&rel, part.get(), 0, 1, 340, 4);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  ASSERT_EQ((*serial)->num_slices(), (*parallel)->num_slices());
  for (int s = 0; s < (*serial)->num_slices(); ++s) {
    for (const auto member : {&CatalogTrees::Slice::clustered_b,
                              &CatalogTrees::Slice::nonclustered_a}) {
      const storage::BPlusTree& x = (*serial)->slice(s).*member;
      const storage::BPlusTree& y = (*parallel)->slice(s).*member;
      EXPECT_TRUE(std::ranges::equal(x.Range(INT64_MIN, INT64_MAX),
                                     y.Range(INT64_MIN, INT64_MAX)))
          << "slice " << s;
      EXPECT_EQ(x.node_count(), y.node_count());
    }
  }
}

}  // namespace
}  // namespace declust::engine
