#include "src/exp/experiment.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/exp/report.h"

namespace declust::exp {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig cfg;
  cfg.name = "tiny";
  cfg.cardinality = 5'000;
  cfg.num_processors = 8;
  cfg.mpls = {1, 8};
  cfg.warmup_ms = 500;
  cfg.measure_ms = 2'000;
  return cfg;
}

TEST(ExperimentTest, SweepProducesAllCurvesAndPoints) {
  auto result = RunThroughputSweep(TinyConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->curves.size(), 3u);
  for (const auto& curve : result->curves) {
    ASSERT_EQ(curve.points.size(), 2u);
    for (const auto& p : curve.points) {
      EXPECT_GT(p.throughput_qps, 0.0) << curve.strategy;
      EXPECT_GT(p.completed, 0) << curve.strategy;
      EXPECT_GE(p.p95_response_ms, p.mean_response_ms * 0.8)
          << curve.strategy;
      EXPECT_GT(p.disk_utilization, 0.0) << curve.strategy;
      EXPECT_LE(p.disk_utilization, 1.0) << curve.strategy;
      EXPECT_GT(p.cpu_utilization, 0.0) << curve.strategy;
      EXPECT_LE(p.cpu_utilization, 1.0) << curve.strategy;
    }
    // More terminals, more throughput in this under-saturated regime.
    EXPECT_GT(curve.points[1].throughput_qps, curve.points[0].throughput_qps)
        << curve.strategy;
  }
}

TEST(ExperimentTest, MagicCurveCarriesGridNote) {
  auto result = RunThroughputSweep(TinyConfig());
  ASSERT_TRUE(result.ok());
  bool found = false;
  for (const auto& curve : result->curves) {
    if (curve.strategy == "MAGIC") {
      EXPECT_NE(curve.note.find("grid"), std::string::npos);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ExperimentTest, UnknownStrategyFails) {
  auto cfg = TinyConfig();
  cfg.strategies = {"quantum"};
  EXPECT_TRUE(RunThroughputSweep(cfg).status().IsNotFound());
}

TEST(ExperimentTest, MakePartitioningCoversAllStrategies) {
  workload::WisconsinOptions w;
  w.cardinality = 1000;
  const auto rel = workload::MakeWisconsin(w);
  const auto wl = workload::MakeMix(workload::ResourceClass::kLow,
                                    workload::ResourceClass::kLow);
  for (const char* name : {"range", "hash", "CMD", "BERD", "MAGIC"}) {
    auto p = MakePartitioning(name, rel, wl, 8);
    ASSERT_TRUE(p.ok()) << name;
    EXPECT_EQ((*p)->num_nodes(), 8);
  }
}

TEST(ReportTest, TablePrintsAllStrategiesAndMpls) {
  auto result = RunThroughputSweep(TinyConfig());
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  PrintThroughputTable(os, *result);
  const std::string text = os.str();
  EXPECT_NE(text.find("range"), std::string::npos);
  EXPECT_NE(text.find("BERD"), std::string::npos);
  EXPECT_NE(text.find("MAGIC"), std::string::npos);
  EXPECT_NE(text.find("MPL"), std::string::npos);
}

TEST(ReportTest, CsvHasHeaderAndRows) {
  auto result = RunThroughputSweep(TinyConfig());
  ASSERT_TRUE(result.ok());
  std::ostringstream os;
  PrintCsv(os, *result);
  const std::string text = os.str();
  EXPECT_NE(text.find("figure,strategy"), std::string::npos);
  // 3 strategies x 2 MPLs = 6 data rows + header.
  int lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 7);
}

TEST(ExperimentTest, RepeatsProduceConfidenceIntervals) {
  auto cfg = TinyConfig();
  cfg.strategies = {"MAGIC"};
  cfg.mpls = {8};
  cfg.repeats = 3;
  auto result = RunThroughputSweep(cfg);
  ASSERT_TRUE(result.ok());
  const auto& p = result->curves[0].points[0];
  EXPECT_GT(p.throughput_qps, 0.0);
  EXPECT_GT(p.throughput_ci95, 0.0);  // replications differ by seed
  // Single run has zero half-width.
  cfg.repeats = 1;
  auto single = RunThroughputSweep(cfg);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->curves[0].points[0].throughput_ci95, 0.0);
}

TEST(ReportTest, RatioSummaryFormats) {
  auto result = RunThroughputSweep(TinyConfig());
  ASSERT_TRUE(result.ok());
  const auto s = RatioSummary(*result, "MAGIC", "range");
  EXPECT_NE(s.find("MAGIC/range"), std::string::npos);
  EXPECT_NE(s.find("MPL 8"), std::string::npos);
  const auto bad = RatioSummary(*result, "MAGIC", "nope");
  EXPECT_NE(bad.find("unavailable"), std::string::npos);
}

}  // namespace
}  // namespace declust::exp
