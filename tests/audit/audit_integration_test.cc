// End-to-end audit coverage: config validation rejects every malformed
// field, an audited sweep reports zero violations while leaving the figures
// byte-identical, and the differential harness reproduces identical digests
// across its serial/parallel/fault-armed variants.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/audit/differential.h"
#include "src/exp/experiment.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"

namespace declust::exp {
namespace {

ExperimentConfig TinyConfig() {
  ExperimentConfig cfg;
  cfg.name = "tiny-audit";
  cfg.cardinality = 5'000;
  cfg.num_processors = 8;
  cfg.mpls = {1, 8};
  cfg.warmup_ms = 500;
  cfg.measure_ms = 2'000;
  return cfg;
}

TEST(ValidateExperimentConfigTest, AcceptsTheDefaultAndTinyConfigs) {
  EXPECT_TRUE(ValidateExperimentConfig(ExperimentConfig{}).ok());
  EXPECT_TRUE(ValidateExperimentConfig(TinyConfig()).ok());
}

TEST(ValidateExperimentConfigTest, RejectsEveryMalformedField) {
  const auto expect_invalid = [](ExperimentConfig cfg, const char* what) {
    const Status st = ValidateExperimentConfig(cfg);
    EXPECT_TRUE(st.IsInvalidArgument()) << what << ": " << st.ToString();
    EXPECT_NE(st.message().find("invalid experiment config"),
              std::string::npos)
        << what;
  };
  {
    auto c = TinyConfig();
    c.num_processors = 0;
    expect_invalid(c, "processors");
  }
  {
    auto c = TinyConfig();
    c.cardinality = 0;
    expect_invalid(c, "cardinality");
  }
  {
    auto c = TinyConfig();
    c.repeats = 0;
    expect_invalid(c, "repeats");
  }
  {
    auto c = TinyConfig();
    c.warmup_ms = -1;
    expect_invalid(c, "warmup");
  }
  {
    auto c = TinyConfig();
    c.measure_ms = 0;
    expect_invalid(c, "measure");
  }
  {
    auto c = TinyConfig();
    c.correlation = 1.5;
    expect_invalid(c, "correlation");
  }
  {
    auto c = TinyConfig();
    c.mpls = {};
    expect_invalid(c, "empty mpls");
  }
  {
    auto c = TinyConfig();
    c.mpls = {1, 0};
    expect_invalid(c, "mpl 0");
  }
  {
    auto c = TinyConfig();
    c.strategies = {};
    expect_invalid(c, "strategies");
  }
  {
    auto c = TinyConfig();
    c.mix.qb_low_tuples = 0;
    expect_invalid(c, "qb_low_tuples");
  }
  {
    auto c = TinyConfig();
    c.faults = "disk:node99@t=1s";  // node 99 on an 8-processor machine
    expect_invalid(c, "fault node out of range");
  }
  {
    auto c = TinyConfig();
    c.faults = "io:node0@t=0,rate=2";  // rate outside [0, 1]
    expect_invalid(c, "fault rate");
  }
  {
    auto c = TinyConfig();
    c.faults = "disk:node0@t=1s,t=2s";  // duplicated key
    expect_invalid(c, "fault duplicate key");
  }
}

TEST(ValidateExperimentConfigTest, SweepAndExplainFailFastOnBadConfig) {
  auto cfg = TinyConfig();
  cfg.mpls = {1, 0};
  RunnerOptions opts;
  const auto sweep = RunThroughputSweep(cfg, opts);
  ASSERT_FALSE(sweep.ok());
  EXPECT_TRUE(sweep.status().IsInvalidArgument());
}

TEST(AuditedSweepTest, ReportsCleanAuditAndIdenticalFigures) {
  const auto cfg = TinyConfig();
  RunnerOptions plain;
  plain.jobs = 1;
  auto baseline = RunThroughputSweep(cfg, plain);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_FALSE(baseline->audited);
  EXPECT_EQ(baseline->audit_checks, 0);

  RunnerOptions audited_opts;
  audited_opts.jobs = 1;
  audited_opts.audit = true;
  auto audited = RunThroughputSweep(cfg, audited_opts);
  ASSERT_TRUE(audited.ok()) << audited.status().ToString();
  EXPECT_TRUE(audited->audited);
  EXPECT_GT(audited->audit_checks, 0);
  EXPECT_EQ(audited->audit_violations, 0) << [&] {
    std::string all;
    for (const auto& m : audited->audit_messages) all += m + "\n";
    return all;
  }();
  EXPECT_GT(audited->oracle_queries, 0);
  EXPECT_EQ(audited->oracle_mismatches, 0);

  // Auditing only observes: the report is byte-identical.
  std::ostringstream a, b;
  PrintCsv(a, *baseline);
  PrintCsv(b, *audited);
  EXPECT_EQ(a.str(), b.str());
}

TEST(AuditedSweepTest, AuditSurvivesAFaultedParallelSweep) {
  auto cfg = TinyConfig();
  cfg.strategies = {"MAGIC"};
  cfg.faults = "disk:node2@t=1s";
  RunnerOptions opts;
  opts.jobs = 4;
  opts.audit = true;
  auto result = RunThroughputSweep(cfg, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->audit_checks, 0);
  EXPECT_EQ(result->audit_violations, 0) << [&] {
    std::string all;
    for (const auto& m : result->audit_messages) all += m + "\n";
    return all;
  }();
  EXPECT_EQ(result->oracle_mismatches, 0);
}

TEST(DifferentialTest, VariantsProduceIdenticalDigests) {
  auto cfg = TinyConfig();
  cfg.strategies = {"range"};
  cfg.mpls = {4};
  RunnerOptions opts;
  opts.jobs = 1;
  opts.audit = true;
  auto diff = RunAuditDifferential(cfg, opts);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  EXPECT_GE(diff->variants.size(), 3u);  // serial, serial+audit, parallel
  EXPECT_TRUE(diff->ok()) << [&] {
    std::string all = diff->Summary();
    for (const auto& m : diff->Mismatches()) all += "\n  " + m;
    return all;
  }();
}

TEST(DifferentialTest, ResizeInactiveFaultPlanMatchesItsBackupsBaseline) {
  // 32 processors growing to 36: the chained backups a fault plan builds
  // move this elastic catalog's extents, so the results move by design.
  // The inactive fault plan is compared with a baseline that builds the
  // same backups without an injector, not with jobs=1.
  ExperimentConfig cfg;
  cfg.strategies = {"range"};
  cfg.cardinality = 20'000;
  cfg.mpls = {4};
  cfg.warmup_ms = 500;
  cfg.measure_ms = 20'000;
  cfg.resize = "add:node32-35@t=2s;remove:node32-35@t=8s";
  RunnerOptions opts;
  opts.jobs = 1;
  auto diff = RunAuditDifferential(cfg, opts);
  ASSERT_TRUE(diff.ok()) << diff.status().ToString();
  ASSERT_EQ(diff->variants.size(), 5u);
  EXPECT_EQ(diff->variants[3].label, "backups");
  EXPECT_EQ(diff->variants[3].baseline, 3u);
  EXPECT_EQ(diff->variants[4].label, "fault-plan-inactive");
  EXPECT_EQ(diff->variants[4].baseline, 3u);
  EXPECT_TRUE(diff->ok()) << [&] {
    std::string all = diff->Summary();
    for (const auto& m : diff->Mismatches()) all += "\n  " + m;
    return all;
  }();
}

TEST(DifferentialTest, ReportComparesEachVariantWithItsBaseline) {
  audit::DifferentialReport report;
  report.point = "range/mpl=4";
  report.variants.push_back({"jobs=1", 0x1234u});
  report.variants.push_back({"backups", 0x5678u, 1});
  report.variants.push_back({"fault-plan-inactive", 0x5678u, 1});
  EXPECT_TRUE(report.ok()) << report.Summary();
  report.variants[2].digest = 0x1234u;
  const auto mismatches = report.Mismatches();
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("!= backups baseline"), std::string::npos)
      << mismatches[0];
}

TEST(DifferentialTest, ReportFlagsDivergingDigests) {
  audit::DifferentialReport report;
  report.point = "range/mpl=4";
  report.variants.push_back({"jobs=1", 0x1234u});
  report.variants.push_back({"jobs=4", 0x1234u});
  report.variants.push_back({"fault-armed", 0x9999u});
  EXPECT_FALSE(report.ok());
  const auto mismatches = report.Mismatches();
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_NE(mismatches[0].find("fault-armed"), std::string::npos);
  EXPECT_NE(report.Summary().find("diverge"), std::string::npos);

  report.variants[2].digest = 0x1234u;
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.Mismatches().empty());
}

}  // namespace
}  // namespace declust::exp
