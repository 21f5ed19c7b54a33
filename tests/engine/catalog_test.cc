#include "src/engine/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "src/decluster/range.h"
#include "src/storage/schema.h"
#include "src/workload/wisconsin.h"

namespace declust::engine {
namespace {

std::vector<hw::PageAddress> ExpandDataPages(const AccessPlan& plan) {
  std::vector<hw::PageAddress> pages;
  plan.ForEachDataPage([&](hw::PageAddress p) { pages.push_back(p); });
  return pages;
}

struct Fixture {
  storage::Relation rel;
  std::unique_ptr<decluster::RangePartitioning> part;
  hw::HwParams hw;
  std::unique_ptr<SystemCatalog> catalog;

  explicit Fixture(int64_t n = 10000, int nodes = 8) : rel(Make(n)) {
    part = std::move(
        decluster::RangePartitioning::Create(rel, {0, 1}, nodes).ValueOrDie());
    catalog = std::move(SystemCatalog::Build(&rel, part.get(), 0, 1, hw)
                            .ValueOrDie());
  }

  static storage::Relation Make(int64_t n) {
    workload::WisconsinOptions o;
    o.cardinality = n;
    o.seed = 31;
    return workload::MakeWisconsin(o);
  }
};

TEST(CatalogTest, IndexTiesMatchAnIndirectSortOfRecordIds) {
  // Both the partitioning attribute A and the clustering attribute B repeat
  // heavily, so each store's clustered order has long runs of equal B. The
  // position every tuple gets — the rid of both index entries — must be the
  // one an indirect sort of the store's record ids by B gives.
  storage::Relation rel("ties", storage::Schema({{"a"}, {"b"}}));
  for (int64_t i = 0; i < 6000; ++i) {
    ASSERT_TRUE(rel.Append({(i * 1237) % 6007 % 7, (i * 389) % 6011 % 5}).ok());
  }
  auto part = decluster::RangePartitioning::Create(rel, {0, 1}, 4);
  ASSERT_TRUE(part.ok());
  hw::HwParams hw;
  auto catalog = SystemCatalog::Build(&rel, part->get(), 0, 1, hw);
  ASSERT_TRUE(catalog.ok());
  const Value lo = std::numeric_limits<Value>::min();
  const Value hi = std::numeric_limits<Value>::max();
  const decluster::NodeGroups groups = (*part)->GroupByNode();
  for (int node = 0; node < 4; ++node) {
    std::vector<RecordId> by_b(groups.node(node).begin(),
                               groups.node(node).end());
    std::sort(by_b.begin(), by_b.end(), [&](RecordId x, RecordId y) {
      return rel.value(x, 1) < rel.value(y, 1);
    });
    std::vector<storage::BTreeEntry> b_ref(by_b.size());
    std::vector<storage::BTreeEntry> a_ref(by_b.size());
    for (size_t pos = 0; pos < by_b.size(); ++pos) {
      b_ref[pos] = {rel.value(by_b[pos], 1), static_cast<RecordId>(pos)};
      a_ref[pos] = {rel.value(by_b[pos], 0), static_cast<RecordId>(pos)};
    }
    std::sort(a_ref.begin(), a_ref.end(),
              [](const storage::BTreeEntry& x, const storage::BTreeEntry& y) {
                return x.key < y.key;
              });
    const FragmentStore& store = (*catalog)->store(node);
    EXPECT_TRUE(std::ranges::equal(store.clustered_index().Range(lo, hi),
                                   b_ref));
    EXPECT_TRUE(std::ranges::equal(store.nonclustered_index().Range(lo, hi),
                                   a_ref));
  }
}

TEST(CatalogTest, BuildsAllStores) {
  Fixture f;
  EXPECT_EQ(f.catalog->num_nodes(), 8);
  int64_t tuples = 0;
  for (int n = 0; n < 8; ++n) tuples += f.catalog->store(n).tuple_count();
  EXPECT_EQ(tuples, 10000);
}

TEST(CatalogTest, ClusteredAccessIsSequentialAndComplete) {
  Fixture f;
  // B in [2000, 2299]: 300 qualifying tuples spread over all 8 nodes
  // (B is not the range-partitioning attribute).
  int64_t found = 0;
  for (int n = 0; n < 8; ++n) {
    const auto plan = f.catalog->PlanAccess(n, {1, 2000, 2299}).ValueOrDie();
    found += plan.tuples;
    // Index descent pages present.
    EXPECT_GE(plan.index_pages().size(), 1u);
    // Clustered access is one contiguous range: the plan's run holds every
    // data page, there is no per-page list, and the expanded addresses are
    // physically consecutive.
    EXPECT_TRUE(plan.data_pages().empty());
    EXPECT_EQ(plan.data_run.count, plan.data_page_count());
    const auto pages = ExpandDataPages(plan);
    for (size_t i = 1; i < pages.size(); ++i) {
      const auto& prev = pages[i - 1];
      const auto& cur = pages[i];
      const bool consecutive =
          (cur.cylinder == prev.cylinder && cur.slot == prev.slot + 1) ||
          (cur.cylinder == prev.cylinder + 1 && cur.slot == 0);
      EXPECT_TRUE(consecutive);
    }
  }
  EXPECT_EQ(found, 300);
}

TEST(CatalogTest, NonClusteredAccessFindsAllTuples) {
  Fixture f;
  // A in [1000, 1029]: 30 tuples, each on exactly one node (A is the range
  // partitioning attribute, so they cluster on few nodes).
  int64_t found = 0;
  int64_t data_pages = 0;
  for (int n = 0; n < 8; ++n) {
    const auto plan = f.catalog->PlanAccess(n, {0, 1000, 1029}).ValueOrDie();
    found += plan.tuples;
    data_pages += static_cast<int64_t>(plan.data_pages().size());
  }
  EXPECT_EQ(found, 30);
  // Non-clustered: roughly one random data page per tuple.
  EXPECT_GE(data_pages, 15);
  EXPECT_LE(data_pages, 30);
}

TEST(CatalogTest, EmptyResultStillDescendsIndex) {
  Fixture f;
  // A query whose range has no tuples at most nodes still reads the index.
  const auto plan = f.catalog->PlanAccess(7, {0, 0, 0}).ValueOrDie();
  EXPECT_EQ(plan.tuples, 0);
  EXPECT_GE(plan.index_pages().size(), 1u);
  EXPECT_TRUE(plan.data_pages().empty());
}

TEST(CatalogTest, ExactMatchReadsOneDataPage) {
  Fixture f;
  int64_t total_pages = 0;
  int64_t found = 0;
  for (int n = 0; n < 8; ++n) {
    const auto plan = f.catalog->PlanAccess(n, {0, 5555, 5555}).ValueOrDie();
    found += plan.tuples;
    total_pages += static_cast<int64_t>(plan.data_pages().size());
  }
  EXPECT_EQ(found, 1);
  EXPECT_EQ(total_pages, 1);
}

TEST(CatalogTest, ScanAccessReadsWholeFragmentSequentially) {
  Fixture f;
  const auto plan = f.catalog->PlanAccess(0, {1, 2000, 2299},
                                          /*sequential_scan=*/true).ValueOrDie();
  // No index pages; every data page of the fragment as one run (the plan
  // is O(1), not O(pages)), expanding to physical order.
  EXPECT_TRUE(plan.index_pages().empty());
  EXPECT_TRUE(plan.data_pages().empty());
  EXPECT_EQ(plan.data_run.count, f.catalog->store(0).data_pages());
  EXPECT_EQ(plan.data_page_count(), f.catalog->store(0).data_pages());
  const auto pages = ExpandDataPages(plan);
  for (size_t i = 1; i < pages.size(); ++i) {
    const auto& prev = pages[i - 1];
    const auto& cur = pages[i];
    const bool consecutive =
        (cur.cylinder == prev.cylinder && cur.slot == prev.slot + 1) ||
        (cur.cylinder == prev.cylinder + 1 && cur.slot == 0);
    EXPECT_TRUE(consecutive);
  }
  // Tuple count matches the indexed plan's.
  const auto indexed = f.catalog->PlanAccess(0, {1, 2000, 2299}).ValueOrDie();
  EXPECT_EQ(plan.tuples, indexed.tuples);
}

TEST(CatalogTest, ScanAccessCountsOnEitherAttribute) {
  Fixture f;
  int64_t via_a = 0, via_b = 0;
  for (int n = 0; n < 8; ++n) {
    via_a += f.catalog->PlanAccess(n, {0, 1000, 1029}, true).ValueOrDie().tuples;
    via_b += f.catalog->PlanAccess(n, {1, 1000, 1029}, true).ValueOrDie().tuples;
  }
  EXPECT_EQ(via_a, 30);
  EXPECT_EQ(via_b, 30);
}

TEST(CatalogTest, AuxPlanEmptyForNonBerd) {
  Fixture f;
  const auto plan = f.catalog->PlanAuxAccess(0, {1, 0, 100}).ValueOrDie();
  EXPECT_TRUE(plan.index_pages().empty());
  EXPECT_EQ(plan.tuples, 0);
}

TEST(CatalogTest, NullArgumentsRejected) {
  Fixture f;
  hw::HwParams hw;
  EXPECT_TRUE(SystemCatalog::Build(nullptr, f.part.get(), 0, 1, hw)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SystemCatalog::Build(&f.rel, nullptr, 0, 1, hw)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace declust::engine
