// A sweep builds each strategy's catalog index trees once and shares them
// read-only across that strategy's points, possibly from several worker
// threads at once. These tests pin that the sharing is invisible: a point
// run on a shared set reports exactly what a point that built its own trees
// reports, and the whole sweep's CSV is byte-identical serially and with
// --jobs 4 for plain, faults+recovery, resize, open and control configs
// (under TSAN, the threads label makes the workers concurrent readers).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/exp/experiment.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

namespace declust::exp {
namespace {

constexpr char kResize[] = "add:node8@t=1s;remove:node8@t=2s";
constexpr char kOpen[] = "rate:150;zipf:0.8;relation:card=2000,weight=1;cap:64";

ExperimentConfig SmallConfig() {
  ExperimentConfig cfg;
  cfg.name = "shared-trees";
  cfg.strategies = {"range", "BERD", "MAGIC"};
  cfg.cardinality = 6'000;
  cfg.num_processors = 8;
  cfg.mpls = {2, 6};
  cfg.warmup_ms = 300;
  cfg.measure_ms = 2'500;
  cfg.repeats = 2;
  return cfg;
}

struct Variant {
  const char* name;
  ExperimentConfig config;
};

std::vector<Variant> Variants() {
  std::vector<Variant> out;
  out.push_back({"plain", SmallConfig()});
  ExperimentConfig faults = SmallConfig();
  faults.faults = "disk:node2@t=600ms";
  faults.recovery = "repair:node2@t=1s";
  out.push_back({"faults+recovery", faults});
  ExperimentConfig resize = SmallConfig();
  resize.resize = kResize;
  out.push_back({"resize", resize});
  ExperimentConfig open = SmallConfig();
  open.open = kOpen;
  open.offered_loads = {60, 120};
  out.push_back({"open", open});
  ExperimentConfig control = SmallConfig();
  control.control =
      "slo:p95<40ms,every=250ms,settle=2;scale:min=4,max=10;"
      "budget:frac=0.3;degrade:floor=8";
  control.open = kOpen;
  control.offered_loads = {120};
  out.push_back({"control", control});
  return out;
}

std::string CsvOf(const SweepResult& result) {
  std::ostringstream os;
  PrintCsv(os, result);
  return os.str();
}

TEST(SharedTreesSweepTest, JobsFourIsByteIdenticalToSerial) {
  for (const Variant& v : Variants()) {
    SCOPED_TRACE(v.name);
    ASSERT_TRUE(ValidateExperimentConfig(v.config).ok());
    auto serial = RunThroughputSweep(v.config, RunnerOptions{.jobs = 1});
    auto parallel = RunThroughputSweep(v.config, RunnerOptions{.jobs = 4});
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(CsvOf(*serial), CsvOf(*parallel));
  }
}

TEST(SharedTreesSweepTest, PointOnSharedTreesMatchesSelfBuiltPoint) {
  // The full metrics registry and simulator counters of one point, with and
  // without a prebuilt tree set, for every strategy and variant.
  for (const Variant& v : Variants()) {
    SCOPED_TRACE(v.name);
    const ExperimentConfig& cfg = v.config;
    workload::WisconsinOptions wopts;
    wopts.cardinality = cfg.cardinality;
    wopts.correlation = cfg.correlation;
    wopts.seed = cfg.seed;
    const storage::Relation relation = workload::MakeWisconsin(wopts);
    const workload::Workload wl = workload::MakeMix(cfg.qa, cfg.qb, cfg.mix);
    auto slices = PartitioningSlices(cfg);
    ASSERT_TRUE(slices.ok());
    // The open variants' second relation, as the sweep builds it.
    workload::WisconsinOptions extra_opts;
    extra_opts.cardinality = 2'000;
    extra_opts.seed = cfg.seed + 100;
    const storage::Relation extra = workload::MakeWisconsin(extra_opts);
    for (const std::string& strategy : cfg.strategies) {
      SCOPED_TRACE(strategy);
      auto part = MakePartitioning(strategy, relation, wl, *slices);
      auto extra_part = MakePartitioning(strategy, extra, wl, *slices);
      ASSERT_TRUE(part.ok() && extra_part.ok());
      const engine::SystemConfig defaults;
      auto trees = engine::CatalogTrees::Build(
          &relation, part->get(), defaults.attr_a, defaults.attr_b,
          defaults.catalog.index_fanout);
      auto extra_trees = engine::CatalogTrees::Build(
          &extra, extra_part->get(), defaults.attr_a, defaults.attr_b,
          defaults.catalog.index_fanout);
      ASSERT_TRUE(trees.ok() && extra_trees.ok());
      const std::vector<engine::SystemConfig::ExtraRelation> own_extras = {
          {&extra, extra_part->get()}};
      const std::vector<engine::SystemConfig::ExtraRelation> shared_extras = {
          {&extra, extra_part->get(), *extra_trees}};
      const bool open = !cfg.open.empty();
      const int level = open ? 0 : cfg.mpls.back();
      std::string own_json, shared_json;
      auto own = RunSweepPointRep(cfg, relation, **part, wl, level, /*rep=*/1,
                                  nullptr, &own_json, nullptr,
                                  open ? &own_extras : nullptr);
      auto shared = RunSweepPointRep(cfg, relation, **part, wl, level, 1,
                                     nullptr, &shared_json, nullptr,
                                     open ? &shared_extras : nullptr, *trees);
      ASSERT_TRUE(own.ok()) << own.status().ToString();
      ASSERT_TRUE(shared.ok()) << shared.status().ToString();
      EXPECT_GT(own->completed, 0);
      EXPECT_EQ(own->completed, shared->completed);
      EXPECT_EQ(own_json, shared_json);
    }
  }
}

TEST(SharedTreesSweepTest, ForeignTreesFailThePoint) {
  // A set built over another partitioning is refused by the catalog build,
  // so the point fails instead of planning against the wrong fragments.
  const ExperimentConfig cfg = SmallConfig();
  workload::WisconsinOptions wopts;
  wopts.cardinality = cfg.cardinality;
  const storage::Relation relation = workload::MakeWisconsin(wopts);
  const workload::Workload wl = workload::MakeMix(cfg.qa, cfg.qb, cfg.mix);
  auto range = MakePartitioning("range", relation, wl, cfg.num_processors);
  auto magic = MakePartitioning("MAGIC", relation, wl, cfg.num_processors);
  ASSERT_TRUE(range.ok() && magic.ok());
  auto magic_trees =
      engine::CatalogTrees::Build(&relation, magic->get(), 0, 1, 340);
  ASSERT_TRUE(magic_trees.ok());
  auto res = RunSweepPointRep(cfg, relation, **range, wl, 2, 0, nullptr,
                              nullptr, nullptr, nullptr, *magic_trees);
  EXPECT_TRUE(res.status().IsInvalidArgument()) << res.status().ToString();
}

}  // namespace
}  // namespace declust::exp
