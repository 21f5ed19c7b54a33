#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "src/workload/mixes.h"
#include "src/workload/querygen.h"
#include "src/workload/wisconsin.h"

namespace declust::workload {
namespace {

TEST(WisconsinTest, SchemaHasThirteenAttributes) {
  WisconsinOptions o;
  o.cardinality = 100;
  auto rel = MakeWisconsin(o);
  EXPECT_EQ(rel.schema().num_attributes(), 13);
  EXPECT_TRUE(rel.schema().HasAttribute("unique1"));
  EXPECT_TRUE(rel.schema().HasAttribute("unique2"));
  EXPECT_EQ(rel.cardinality(), 100);
}

TEST(WisconsinTest, Unique1AndUnique2ArePermutations) {
  WisconsinOptions o;
  o.cardinality = 1000;
  auto rel = MakeWisconsin(o);
  std::set<int64_t> u1, u2;
  for (int64_t i = 0; i < rel.cardinality(); ++i) {
    const auto rid = static_cast<storage::RecordId>(i);
    u1.insert(rel.value(rid, WisconsinAttrs::kUnique1));
    u2.insert(rel.value(rid, WisconsinAttrs::kUnique2));
  }
  EXPECT_EQ(u1.size(), 1000u);
  EXPECT_EQ(*u1.begin(), 0);
  EXPECT_EQ(*u1.rbegin(), 999);
  EXPECT_EQ(u2.size(), 1000u);
}

TEST(WisconsinTest, LowCorrelationIsNearZero) {
  WisconsinOptions o;
  o.cardinality = 10000;
  o.correlation = 0.0;
  auto rel = MakeWisconsin(o);
  EXPECT_LT(std::abs(MeasuredCorrelation(rel)), 0.05);
}

TEST(WisconsinTest, FullCorrelationIsIdentity) {
  WisconsinOptions o;
  o.cardinality = 5000;
  o.correlation = 1.0;
  auto rel = MakeWisconsin(o);
  for (int64_t i = 0; i < rel.cardinality(); ++i) {
    const auto rid = static_cast<storage::RecordId>(i);
    EXPECT_EQ(rel.value(rid, WisconsinAttrs::kUnique1),
              rel.value(rid, WisconsinAttrs::kUnique2));
  }
  EXPECT_NEAR(MeasuredCorrelation(rel), 1.0, 1e-12);
}

TEST(WisconsinTest, IntermediateCorrelationIsMonotone) {
  WisconsinOptions o;
  o.cardinality = 10000;
  o.correlation = 0.5;
  const double mid = MeasuredCorrelation(MakeWisconsin(o));
  o.correlation = 0.9;
  const double high = MeasuredCorrelation(MakeWisconsin(o));
  EXPECT_GT(mid, 0.2);
  EXPECT_GT(high, mid);
}

TEST(WisconsinTest, DeterministicForSeed) {
  WisconsinOptions o;
  o.cardinality = 500;
  o.seed = 42;
  auto r1 = MakeWisconsin(o);
  auto r2 = MakeWisconsin(o);
  for (int64_t i = 0; i < 500; ++i) {
    const auto rid = static_cast<storage::RecordId>(i);
    EXPECT_EQ(r1.value(rid, 0), r2.value(rid, 0));
    EXPECT_EQ(r1.value(rid, 1), r2.value(rid, 1));
  }
}

TEST(WisconsinTest, DerivedAttributesFollowUnique1) {
  WisconsinOptions o;
  o.cardinality = 200;
  auto rel = MakeWisconsin(o);
  const auto two = *rel.schema().AttrIndex("two");
  const auto one_percent = *rel.schema().AttrIndex("onePercent");
  for (int64_t i = 0; i < rel.cardinality(); ++i) {
    const auto rid = static_cast<storage::RecordId>(i);
    const auto u1 = rel.value(rid, WisconsinAttrs::kUnique1);
    EXPECT_EQ(rel.value(rid, two), u1 % 2);
    EXPECT_EQ(rel.value(rid, one_percent), u1 % 100);
  }
  // Every one of the eleven derived attributes, by name, against the
  // Wisconsin formula over unique1.
  const struct {
    const char* name;
    int64_t (*formula)(int64_t);
  } kDerived[] = {
      {"two", [](int64_t u) { return u % 2; }},
      {"four", [](int64_t u) { return u % 4; }},
      {"ten", [](int64_t u) { return u % 10; }},
      {"twenty", [](int64_t u) { return u % 20; }},
      {"onePercent", [](int64_t u) { return u % 100; }},
      {"tenPercent", [](int64_t u) { return u % 10; }},
      {"twentyPercent", [](int64_t u) { return u % 5; }},
      {"fiftyPercent", [](int64_t u) { return u % 2; }},
      {"unique3", [](int64_t u) { return u; }},
      {"evenOnePercent", [](int64_t u) { return (u % 100) * 2; }},
      {"oddOnePercent", [](int64_t u) { return (u % 100) * 2 + 1; }},
  };
  ASSERT_EQ(rel.schema().num_attributes(), 2 + 11);
  for (const auto& d : kDerived) {
    const auto attr = rel.schema().AttrIndex(d.name);
    ASSERT_TRUE(attr.ok()) << d.name;
    EXPECT_GE(*attr, rel.schema().num_stored()) << d.name;
    for (int64_t i = 0; i < rel.cardinality(); ++i) {
      const auto rid = static_cast<storage::RecordId>(i);
      EXPECT_EQ(rel.value(rid, *attr),
                d.formula(rel.value(rid, WisconsinAttrs::kUnique1)))
          << d.name << " rid " << i;
    }
  }
}

TEST(WisconsinTest, StoresOnlyUnique1AndUnique2) {
  // Two stored int64 columns: 16 bytes per tuple plus at most one partly
  // filled block (4,096 rows of two values).
  constexpr int64_t kBlockBytes = 4096 * 16;
  for (const int64_t n : {int64_t{1}, int64_t{4096}, int64_t{4097},
                          int64_t{100'000}, int64_t{500'000}}) {
    WisconsinOptions o;
    o.cardinality = n;
    const auto rel = MakeWisconsin(o);
    EXPECT_EQ(rel.schema().num_stored(), 2);
    EXPECT_LE(static_cast<int64_t>(rel.memory_bytes()), 16 * n + kBlockBytes)
        << "N=" << n;
    EXPECT_GE(static_cast<int64_t>(rel.memory_bytes()), 16 * n) << "N=" << n;
  }
}

TEST(MixesTest, PaperMixDefinitions) {
  auto ll = MakeMix(ResourceClass::kLow, ResourceClass::kLow);
  EXPECT_EQ(ll.name, "low-low");
  ASSERT_EQ(ll.classes.size(), 2u);
  EXPECT_TRUE(ll.classes[0].exact);
  EXPECT_EQ(ll.classes[0].tuples, 1);
  EXPECT_FALSE(ll.classes[0].clustered_index);
  EXPECT_EQ(ll.classes[1].tuples, 10);
  EXPECT_TRUE(ll.classes[1].clustered_index);
  EXPECT_DOUBLE_EQ(ll.classes[0].frequency + ll.classes[1].frequency, 1.0);

  auto mm = MakeMix(ResourceClass::kModerate, ResourceClass::kModerate);
  EXPECT_EQ(mm.classes[0].tuples, 30);
  EXPECT_EQ(mm.classes[1].tuples, 300);

  MixOptions wider;
  wider.qb_low_tuples = 20;
  auto fig9 = MakeMix(ResourceClass::kLow, ResourceClass::kLow, wider);
  EXPECT_EQ(fig9.classes[1].tuples, 20);
}

TEST(MixesTest, DeclaredResourcesGiveIdealProcessorCounts) {
  // With CP = 2 ms: sqrt(2/2) = 1 for low, sqrt(162/2) = 9 for moderate.
  auto lm = MakeMix(ResourceClass::kLow, ResourceClass::kModerate);
  EXPECT_NEAR(std::sqrt(lm.classes[0].declared_total_ms() / 2.0), 1.0, 1e-9);
  EXPECT_NEAR(std::sqrt(lm.classes[1].declared_total_ms() / 2.0), 9.0, 1e-9);
}

TEST(QueryGenTest, ExactQueriesHaveWidthOne) {
  auto w = MakeMix(ResourceClass::kLow, ResourceClass::kLow);
  QueryGenerator gen(&w, 100000, RandomStream(3));
  int exact_seen = 0, range_seen = 0;
  for (int i = 0; i < 1000; ++i) {
    auto q = gen.Next();
    if (q.class_index == 0) {
      EXPECT_EQ(q.attr, 0);
      EXPECT_EQ(q.hi, q.lo);
      ++exact_seen;
    } else {
      EXPECT_EQ(q.attr, 1);
      EXPECT_EQ(q.hi - q.lo + 1, 10);
      ++range_seen;
    }
    EXPECT_GE(q.lo, 0);
    EXPECT_LT(q.hi, 100000);
  }
  // 50/50 mix.
  EXPECT_NEAR(exact_seen, 500, 100);
  EXPECT_NEAR(range_seen, 500, 100);
}

TEST(QueryGenTest, RangeWidthsMatchSelectivity) {
  auto w = MakeMix(ResourceClass::kModerate, ResourceClass::kModerate);
  QueryGenerator gen(&w, 100000, RandomStream(4));
  for (int i = 0; i < 200; ++i) {
    auto q = gen.Next();
    const int64_t width = q.hi - q.lo + 1;
    if (q.attr == 0) {
      EXPECT_EQ(width, 30);
    } else {
      EXPECT_EQ(width, 300);
    }
  }
}

}  // namespace
}  // namespace declust::workload
