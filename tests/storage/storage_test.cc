#include <gtest/gtest.h>

#include "src/storage/disk_layout.h"
#include "src/storage/page_layout.h"
#include "src/storage/relation.h"
#include "src/storage/schema.h"

namespace declust::storage {
namespace {

Schema TwoAttrSchema() {
  return Schema({{"unique1"}, {"unique2"}});
}

TEST(SchemaTest, AttrIndexLookup) {
  Schema s = TwoAttrSchema();
  EXPECT_EQ(s.num_attributes(), 2);
  ASSERT_TRUE(s.AttrIndex("unique1").ok());
  EXPECT_EQ(*s.AttrIndex("unique1"), 0);
  EXPECT_EQ(*s.AttrIndex("unique2"), 1);
  EXPECT_TRUE(s.AttrIndex("nope").status().IsNotFound());
  EXPECT_TRUE(s.HasAttribute("unique2"));
  EXPECT_FALSE(s.HasAttribute("unique3"));
}

TEST(SchemaTest, DerivedAttributesFollowTheStoredOnes) {
  Schema s = TwoAttrSchema();
  ASSERT_TRUE(s.AddDerived("u1mod7", {0, 7, 1, 0}).ok());
  ASSERT_TRUE(s.AddDerived("u2copy", {1, 0, 1, 0}).ok());
  ASSERT_TRUE(s.AddDerived("odd", {0, 100, 2, 1}).ok());
  EXPECT_EQ(s.num_attributes(), 5);
  EXPECT_EQ(s.num_stored(), 2);
  EXPECT_EQ(*s.AttrIndex("u1mod7"), 2);
  EXPECT_EQ(*s.AttrIndex("odd"), 4);
  EXPECT_EQ(s.derivation(4).base, 0);
  EXPECT_EQ(s.derivation(4).Apply(1234), 69);
  EXPECT_EQ(s.derivation(3).Apply(-5), -5);  // modulus 0: the base itself
}

TEST(SchemaTest, BadDerivationsAreStatuses) {
  Schema s = TwoAttrSchema();
  // Base out of range, either side.
  EXPECT_TRUE(s.AddDerived("neg", {-1, 2, 1, 0}).IsOutOfRange());
  EXPECT_TRUE(s.AddDerived("past", {2, 2, 1, 0}).IsOutOfRange());
  ASSERT_TRUE(s.AddDerived("half", {0, 2, 1, 0}).ok());
  // A derived base: derivations do not chain.
  const Status chained = s.AddDerived("quarter", {2, 2, 1, 0});
  EXPECT_TRUE(chained.IsInvalidArgument());
  EXPECT_NE(chained.message().find("half"), std::string::npos)
      << chained.ToString();
  EXPECT_TRUE(s.AddDerived("negmod", {0, -3, 1, 0}).IsInvalidArgument());
  // Refused attributes leave the schema as it was.
  EXPECT_EQ(s.num_attributes(), 3);
  EXPECT_FALSE(s.HasAttribute("quarter"));
}

TEST(RelationTest, DerivedAttributesAreComputedNotStored) {
  Schema s = TwoAttrSchema();
  ASSERT_TRUE(s.AddDerived("u1mod3", {0, 3, 10, 1}).ok());
  Relation r("R", std::move(s));
  // Append takes the stored values only.
  EXPECT_TRUE(r.Append({1, 2, 3}).IsInvalidArgument());
  ASSERT_TRUE(r.Append({7, 40}).ok());
  ASSERT_TRUE(r.Append({9, 41}).ok());
  EXPECT_EQ(r.value(0, 2), (7 % 3) * 10 + 1);
  EXPECT_EQ(r.value(1, 2), 1);
  EXPECT_EQ(r.value(1, 1), 41);
  auto range = r.AttrRange(2);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, 1);
  EXPECT_EQ(range->second, 11);
  // One block of two stored columns, nothing for the derived one.
  EXPECT_EQ(r.memory_bytes(), 4096u * 2 * sizeof(Value));
}

TEST(RelationTest, AppendAndRead) {
  Relation r("R", TwoAttrSchema());
  ASSERT_TRUE(r.Append({10, 20}).ok());
  ASSERT_TRUE(r.Append({30, 40}).ok());
  EXPECT_EQ(r.cardinality(), 2);
  EXPECT_EQ(r.value(0, 0), 10);
  EXPECT_EQ(r.value(1, 1), 40);
  EXPECT_EQ(r.AllRecords().size(), 2u);
}

TEST(RelationTest, ArityMismatchRejected) {
  Relation r("R", TwoAttrSchema());
  EXPECT_TRUE(r.Append({1}).IsInvalidArgument());
  EXPECT_TRUE(r.Append({1, 2, 3}).IsInvalidArgument());
  EXPECT_EQ(r.cardinality(), 0);
}

TEST(RelationTest, AttrRange) {
  Relation r("R", TwoAttrSchema());
  ASSERT_TRUE(r.Append({5, 100}).ok());
  ASSERT_TRUE(r.Append({-3, 200}).ok());
  ASSERT_TRUE(r.Append({12, 150}).ok());
  auto range = r.AttrRange(0);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->first, -3);
  EXPECT_EQ(range->second, 12);
  EXPECT_TRUE(Relation("E", TwoAttrSchema())
                  .AttrRange(0)
                  .status()
                  .IsFailedPrecondition());
  EXPECT_TRUE(r.AttrRange(9).status().IsOutOfRange());
}

TEST(PageLayoutTest, PaperGeometry) {
  PageLayout pl(36);  // 36 tuples per 8K page (208-byte tuples)
  EXPECT_EQ(pl.PageOfPosition(0), 0);
  EXPECT_EQ(pl.PageOfPosition(35), 0);
  EXPECT_EQ(pl.PageOfPosition(36), 1);
  EXPECT_EQ(pl.PagesFor(0), 0);
  EXPECT_EQ(pl.PagesFor(1), 1);
  EXPECT_EQ(pl.PagesFor(36), 1);
  EXPECT_EQ(pl.PagesFor(37), 2);
  // A 10-tuple clustered range fits in 1-2 pages.
  EXPECT_EQ(pl.PagesSpanned(0, 9), 1);
  EXPECT_EQ(pl.PagesSpanned(30, 39), 2);
  EXPECT_EQ(pl.PagesSpanned(5, 4), 0);
  // 300 tuples span ~9 pages.
  EXPECT_EQ(pl.PagesSpanned(0, 299), 9);
}

TEST(DiskLayoutTest, AllocationIsContiguous) {
  DiskLayout dl(48, 1000);
  auto e1 = dl.Allocate(100);
  ASSERT_TRUE(e1.ok());
  auto e2 = dl.Allocate(50);
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e1->base_page, 0);
  EXPECT_EQ(e2->base_page, 100);
  EXPECT_EQ(dl.allocated_pages(), 150);
}

TEST(DiskLayoutTest, ResolveSequentialWithinExtent) {
  DiskLayout dl(48, 1000);
  auto e = dl.Allocate(100);
  ASSERT_TRUE(e.ok());
  auto p0 = dl.Resolve(*e, 0);
  auto p1 = dl.Resolve(*e, 1);
  auto p47 = dl.Resolve(*e, 47);
  auto p48 = dl.Resolve(*e, 48);
  ASSERT_TRUE(p0.ok() && p1.ok() && p47.ok() && p48.ok());
  EXPECT_EQ(p0->cylinder, 0);
  EXPECT_EQ(p0->slot, 0);
  EXPECT_EQ(p1->slot, 1);
  EXPECT_EQ(p47->slot, 47);
  EXPECT_EQ(p48->cylinder, 1);  // crosses to the next cylinder
  EXPECT_EQ(p48->slot, 0);
}

TEST(DiskLayoutTest, BoundsChecked) {
  DiskLayout dl(48, 10);
  auto e = dl.Allocate(20);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(dl.Resolve(*e, -1).status().IsOutOfRange());
  EXPECT_TRUE(dl.Resolve(*e, 20).status().IsOutOfRange());
  EXPECT_TRUE(dl.Allocate(10000).status().IsOutOfRange());
  EXPECT_TRUE(dl.Allocate(-5).status().IsInvalidArgument());
}

}  // namespace
}  // namespace declust::storage
