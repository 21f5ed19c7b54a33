// Regression tests for plan-building error propagation. These paths used to
// be guarded by assert(addr.ok()) which compiles out in Release builds and
// then dereferences a failed Result (silent UB). They must now return a
// clean Status in every build configuration — this suite runs in the Release
// smoke tree too (tools/ci_check.sh).

#include <gtest/gtest.h>

#include "src/decluster/range.h"
#include "src/engine/catalog.h"
#include "src/workload/wisconsin.h"

namespace declust::engine {
namespace {

storage::Relation MakeRel(int64_t n) {
  workload::WisconsinOptions o;
  o.cardinality = n;
  o.seed = 31;
  return workload::MakeWisconsin(o);
}

struct Fixture {
  storage::Relation rel;
  std::unique_ptr<decluster::RangePartitioning> part;
  hw::HwParams hw;
  std::unique_ptr<SystemCatalog> catalog;

  explicit Fixture(CatalogOptions opts = CatalogOptions()) : rel(MakeRel(10000)) {
    part = std::move(
        decluster::RangePartitioning::Create(rel, {0, 1}, 8).ValueOrDie());
    catalog = std::move(
        SystemCatalog::Build(&rel, part.get(), 0, 1, hw, opts).ValueOrDie());
  }
};

// Simulates the catalog-corruption case the old asserts guarded: a fragment
// store whose extent is shorter than its data. Relocate() is the public
// epoch-flip hook; pointing it at a truncated extent makes every resolve of
// a late page fail, which must surface as a clean OutOfRange — not UB.
void TruncateStore(SystemCatalog* catalog, int slice) {
  auto& store = const_cast<FragmentStore&>(catalog->store(slice));
  storage::Extent data = store.data_extent();
  storage::Extent idx_b = store.index_b_extent();
  storage::Extent idx_a = store.index_a_extent();
  data.num_pages = 1;
  idx_b.num_pages = 1;
  idx_a.num_pages = 1;
  store.Relocate(data, idx_b, idx_a);
}

TEST(CatalogStatusTest, ScanCoversExactlyTheExtent) {
  // A scan walks the extent itself, so it cannot resolve out of range — it
  // shrinks with the extent instead. Pin that down so the indexed plans
  // below are the only paths that can observe a truncated extent.
  Fixture f;
  TruncateStore(f.catalog.get(), 0);
  const auto plan =
      f.catalog->PlanAccess(0, {1, 0, 1 << 30}, /*sequential_scan=*/true);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->data_page_count(), 1);
}

TEST(CatalogStatusTest, ClusteredAccessOverTruncatedExtentReturnsOutOfRange) {
  Fixture f;
  TruncateStore(f.catalog.get(), 0);
  const auto plan = f.catalog->PlanAccess(0, {1, 0, 1 << 30});
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsOutOfRange()) << plan.status().ToString();
}

TEST(CatalogStatusTest, NonClusteredAccessOverTruncatedExtentReturnsOutOfRange) {
  Fixture f;
  TruncateStore(f.catalog.get(), 0);
  const auto plan = f.catalog->PlanAccess(0, {0, 0, 1 << 30});
  ASSERT_FALSE(plan.ok());
  EXPECT_TRUE(plan.status().IsOutOfRange()) << plan.status().ToString();
}

TEST(CatalogStatusTest, PlanIntoVariantsReportTheSameFailure) {
  Fixture f;
  TruncateStore(f.catalog.get(), 0);
  AccessPlan plan;
  EXPECT_TRUE(f.catalog->PlanAccessInto(0, {1, 0, 1 << 30}, false, &plan)
                  .IsOutOfRange());
  EXPECT_TRUE(f.catalog->PlanAccessInto(0, {0, 0, 1 << 30}, false, &plan)
                  .IsOutOfRange());
  // An untouched slice still plans fine afterwards.
  EXPECT_TRUE(f.catalog->PlanAccessInto(1, {1, 0, 1 << 30}, true, &plan).ok());
}

TEST(CatalogStatusTest, BackupPlansWithoutBackupsFailCleanly) {
  Fixture f;  // chained_backups defaults off
  ASSERT_FALSE(f.catalog->has_backups());
  AccessPlan plan;
  EXPECT_TRUE(f.catalog->PlanBackupAccessInto(0, {1, 0, 10}, false, &plan)
                  .IsFailedPrecondition());
  const auto rebuild = f.catalog->PlanRebuild(0);
  ASSERT_FALSE(rebuild.ok());
  EXPECT_TRUE(rebuild.status().IsFailedPrecondition());
}

TEST(CatalogStatusTest, BackupScanOverTruncatedBackupReturnsOutOfRange) {
  CatalogOptions opts;
  opts.chained_backups = true;
  Fixture f(opts);
  ASSERT_TRUE(f.catalog->has_backups());
  // Truncating the primary must not affect backup plans…
  TruncateStore(f.catalog.get(), 0);
  const auto backup = f.catalog->PlanBackupAccess(0, {1, 0, 1 << 30}, true);
  EXPECT_TRUE(backup.ok());
  // …and a healthy primary elsewhere still plans.
  EXPECT_TRUE(f.catalog->PlanAccess(1, {1, 0, 1 << 30}, true).ok());
}

TEST(CatalogMemoryTest, BackupStoresShareIndexContent) {
  Fixture plain;
  CatalogOptions opts;
  opts.chained_backups = true;
  Fixture backed(opts);

  // Chained backups double the stores but share the primaries' immutable
  // trees, so the catalog's index footprint must stay (almost) flat.
  const int64_t plain_bytes = plain.catalog->memory_bytes();
  const int64_t backed_bytes = backed.catalog->memory_bytes();
  EXPECT_GT(plain_bytes, 0);
  EXPECT_EQ(backed_bytes, plain_bytes);
  for (int n = 0; n < 8; ++n) {
    EXPECT_EQ(backed.catalog->store(n).index_identity(),
              backed.catalog->backup_store(n).index_identity());
  }

  // Sharing must not change what the backup plans: same pages relative to
  // its own extents, same tuple counts as the primary.
  for (int n = 0; n < 8; ++n) {
    const auto p = backed.catalog->PlanAccess(n, {1, 0, 5000}).ValueOrDie();
    const auto b =
        backed.catalog->PlanBackupAccess(n, {1, 0, 5000}).ValueOrDie();
    EXPECT_EQ(p.tuples, b.tuples);
    EXPECT_EQ(p.data_page_count(), b.data_page_count());
    EXPECT_EQ(p.index_pages().size(), b.index_pages().size());
  }
}

TEST(CatalogBuildTest, ParallelBuildIsByteIdenticalToSerial) {
  CatalogOptions serial_opts;
  serial_opts.chained_backups = true;
  serial_opts.build_jobs = 1;
  CatalogOptions parallel_opts = serial_opts;
  parallel_opts.build_jobs = 8;
  Fixture serial(serial_opts);
  Fixture parallel(parallel_opts);

  const auto same_extent = [](const storage::Extent& a,
                              const storage::Extent& b) {
    return a.base_page == b.base_page && a.num_pages == b.num_pages;
  };
  for (int n = 0; n < 8; ++n) {
    const auto& s = serial.catalog->store(n);
    const auto& p = parallel.catalog->store(n);
    EXPECT_TRUE(same_extent(s.data_extent(), p.data_extent())) << n;
    EXPECT_TRUE(same_extent(s.index_b_extent(), p.index_b_extent())) << n;
    EXPECT_TRUE(same_extent(s.index_a_extent(), p.index_a_extent())) << n;
    const auto& sb = serial.catalog->backup_store(n);
    const auto& pb = parallel.catalog->backup_store(n);
    EXPECT_TRUE(same_extent(sb.data_extent(), pb.data_extent())) << n;
    EXPECT_TRUE(same_extent(sb.index_b_extent(), pb.index_b_extent())) << n;
    EXPECT_TRUE(same_extent(sb.index_a_extent(), pb.index_a_extent())) << n;

    // Resolved plan addresses (index descent + data pages) agree too.
    const auto expand = [](const AccessPlan& plan) {
      std::vector<hw::PageAddress> pages(plan.index_pages().begin(),
                                         plan.index_pages().end());
      plan.ForEachDataPage([&](hw::PageAddress a) { pages.push_back(a); });
      return pages;
    };
    for (const Predicate q : {Predicate{1, 0, 3000}, Predicate{0, 100, 400}}) {
      const auto sp = serial.catalog->PlanAccess(n, q).ValueOrDie();
      const auto pp = parallel.catalog->PlanAccess(n, q).ValueOrDie();
      EXPECT_EQ(sp.tuples, pp.tuples);
      const auto sa = expand(sp);
      const auto pa = expand(pp);
      ASSERT_EQ(sa.size(), pa.size());
      for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].cylinder, pa[i].cylinder);
        EXPECT_EQ(sa[i].slot, pa[i].slot);
      }
    }
  }
}

}  // namespace
}  // namespace declust::engine
