// The result oracle must clear every real strategy (they all reconstruct
// the same qualifying-tuple sets) and must catch a planner that skips a
// fragment holding qualifying tuples — the failure mode the simulator's
// cost-only execution would never surface.
#include "src/audit/oracle.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/decluster/strategy.h"
#include "src/exp/experiment.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

namespace declust::audit {
namespace {

constexpr int kNodes = 8;
constexpr int64_t kCardinality = 2'000;

storage::Relation TestRelation() {
  workload::WisconsinOptions w;
  w.cardinality = kCardinality;
  return workload::MakeWisconsin(w);
}

/// A deliberately broken planner: tuples live round-robin on every node but
/// SitesFor always claims node 0 suffices.
class BrokenPartitioning : public decluster::Partitioning {
 public:
  BrokenPartitioning(const storage::Relation& rel, int num_nodes) {
    std::vector<int> home(static_cast<size_t>(rel.cardinality()));
    for (size_t r = 0; r < home.size(); ++r) {
      home[r] = static_cast<int>(r) % num_nodes;
    }
    SetAssignment(num_nodes, 2, std::move(home));
  }
  const std::string& name() const override { return name_; }
  void SitesForInto(const decluster::Predicate&,
                    decluster::PlanSites* out) const override {
    out->clear();
    out->data_nodes = {0};
  }

 protected:
  std::vector<int> SitesForInsert(
      const std::vector<decluster::Value>&) const override {
    return {0};
  }

 private:
  std::string name_ = "broken";
};

TEST(OracleTest, AllRealStrategiesAgreeWithTheReferenceExecutor) {
  const auto rel = TestRelation();
  const auto wl = workload::MakeMix(workload::ResourceClass::kLow,
                                    workload::ResourceClass::kModerate);
  std::vector<std::unique_ptr<decluster::Partitioning>> owned;
  std::vector<const decluster::Partitioning*> parts;
  for (const char* name : {"range", "hash", "CMD", "BERD", "MAGIC"}) {
    auto p = exp::MakePartitioning(name, rel, wl, kNodes);
    ASSERT_TRUE(p.ok()) << name;
    parts.push_back(p->get());
    owned.push_back(std::move(*p));
  }
  OracleOptions opts;
  opts.num_queries = 64;
  const OracleReport report =
      RunOracle(rel, parts, wl, workload::WisconsinAttrs::kUnique1,
                workload::WisconsinAttrs::kUnique2, opts);
  EXPECT_TRUE(report.ok()) << [&] {
    std::string all = report.Summary();
    for (const auto& m : report.messages) all += "\n  " + m;
    return all;
  }();
  EXPECT_EQ(report.queries, 64);
  EXPECT_GT(report.checks, report.queries);
}

TEST(OracleTest, DetectsAPlannerThatSkipsQualifyingFragments) {
  const auto rel = TestRelation();
  const auto wl = workload::MakeMix(workload::ResourceClass::kLow,
                                    workload::ResourceClass::kLow);
  const BrokenPartitioning broken(rel, kNodes);
  OracleOptions opts;
  opts.num_queries = 32;
  const OracleReport report =
      RunOracle(rel, {&broken}, wl, workload::WisconsinAttrs::kUnique1,
                workload::WisconsinAttrs::kUnique2, opts);
  EXPECT_FALSE(report.ok());
  EXPECT_GT(report.mismatches, 0);
  ASSERT_FALSE(report.messages.empty());
  EXPECT_NE(report.messages.front().find("broken"), std::string::npos);
}

TEST(OracleTest, DeterministicForAFixedSeed) {
  const auto rel = TestRelation();
  const auto wl = workload::MakeMix(workload::ResourceClass::kModerate,
                                    workload::ResourceClass::kLow);
  auto p = exp::MakePartitioning("MAGIC", rel, wl, kNodes);
  ASSERT_TRUE(p.ok());
  OracleOptions opts;
  opts.num_queries = 16;
  opts.seed = 99;
  const auto r1 = RunOracle(rel, {p->get()}, wl,
                            workload::WisconsinAttrs::kUnique1,
                            workload::WisconsinAttrs::kUnique2, opts);
  const auto r2 = RunOracle(rel, {p->get()}, wl,
                            workload::WisconsinAttrs::kUnique1,
                            workload::WisconsinAttrs::kUnique2, opts);
  EXPECT_EQ(r1.checks, r2.checks);
  EXPECT_EQ(r1.mismatches, r2.mismatches);
  EXPECT_TRUE(r1.ok());
}

}  // namespace
}  // namespace declust::audit
