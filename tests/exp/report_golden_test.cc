// Report bytes pinned across commits: five tiny sweeps, one per column
// group (plain; faults + components; faults + recovery + resize; open over
// two offered loads; control + open), each digested three ways — the CSV,
// the text reports and the run manifest's result_digest. A refactor of the
// harness (aggregation, column table, report layout) must leave every pin
// as it is; a change that means to alter output re-pins the entries it
// changes and says so.
//
// On a mismatch the failure message prints the new digest, so a deliberate
// re-pin is a copy of that value.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "src/exp/experiment.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/obs/manifest.h"

namespace declust::exp {
namespace {

constexpr char kOpenSpec[] =
    "rate:150;zipf:0.8;relation:card=5000,weight=1;cap:64";
constexpr char kResizeSpec[] = "add:node8@t=1s;remove:node8@t=2s";

ExperimentConfig GoldenConfig() {
  ExperimentConfig cfg;
  cfg.name = "golden";
  cfg.cardinality = 20'000;
  cfg.num_processors = 8;
  cfg.warmup_ms = 500;
  cfg.measure_ms = 2'000;
  cfg.seed = 7;
  return cfg;
}

struct Pins {
  const char* csv;
  const char* text;
  const char* manifest;
};

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The manifest's "result_digest" value, as written.
std::string ManifestDigest(const std::string& path) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::string key = "\"result_digest\": \"";
  const size_t at = text.find(key);
  if (at == std::string::npos) return "missing";
  const size_t begin = at + key.size();
  const std::string hex = text.substr(begin, text.find('"', begin) - begin);
  return Hex(std::strtoull(hex.c_str(), nullptr, 16));
}

void ExpectPinned(const std::string& label, const ExperimentConfig& cfg,
                  bool components, const Pins& pins) {
  if (std::getenv("DECLUST_QUICK") != nullptr) {
    GTEST_SKIP() << "DECLUST_QUICK reshapes the pinned configs";
  }
  RunnerOptions opts;
  opts.jobs = 1;
  opts.collect_components = components;
  opts.manifest_path =
      testing::TempDir() + "report_golden_" + label + ".json";
  auto result = RunThroughputSweep(cfg, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  std::ostringstream csv;
  PrintCsv(csv, *result);
  std::ostringstream text;
  PrintThroughputTable(text, *result);
  PrintRecoveryReport(text, *result);
  PrintResizeReport(text, *result);
  PrintControlReport(text, *result);
  text << RatioSummary(*result, cfg.strategies.back(), cfg.strategies.front())
       << "\n";

  EXPECT_EQ(Hex(obs::Fnv1a64(csv.str())), pins.csv) << csv.str();
  EXPECT_EQ(Hex(obs::Fnv1a64(text.str())), pins.text) << text.str();
  EXPECT_EQ(ManifestDigest(opts.manifest_path), pins.manifest);
  std::remove(opts.manifest_path.c_str());
}

TEST(ReportGoldenTest, Plain) {
  ExperimentConfig cfg = GoldenConfig();
  cfg.strategies = {"range", "BERD", "MAGIC"};
  cfg.mpls = {1, 4};
  cfg.repeats = 2;
  ExpectPinned("plain", cfg, /*components=*/false,
               {"990a952e60bd98d7", "ff116c2c28b57217", "a3f2ad0d006fcdcd"});
}

TEST(ReportGoldenTest, FaultsAndComponents) {
  ExperimentConfig cfg = GoldenConfig();
  cfg.strategies = {"range", "hash"};
  cfg.mpls = {4};
  cfg.repeats = 2;
  cfg.faults =
      "disk:node2@t=600ms;slow:node5@t=1s,x=2,for=1s;"
      "io:node3@t=0,rate=0.02";
  ExpectPinned("faults", cfg, /*components=*/true,
               {"12a17f872dec7e08", "6dd54bd2e2cc65d8", "0a6baf8ced56a17e"});
}

TEST(ReportGoldenTest, FaultsRecoveryAndResize) {
  // A longer window lets the MPL 1 points finish a migration; no point
  // restores the failed node in time, so restored_ms stays -1.
  ExperimentConfig cfg = GoldenConfig();
  cfg.strategies = {"range", "hash"};
  cfg.mpls = {1, 4};
  cfg.repeats = 2;
  cfg.measure_ms = 6'000;
  cfg.faults = "disk:node2@t=600ms";
  cfg.recovery = "repair:node2@t=1s,rate=50";
  cfg.resize = "add:node8@t=1s;remove:node8@t=4s";
  ExpectPinned("recovery", cfg, /*components=*/false,
               {"9f77674788e958c9", "f5c22de1050a8533", "af65ca04b2938b9a"});
}

TEST(ReportGoldenTest, OpenOverTwoOfferedLoads) {
  // The 0.2 q/s level completes no query inside the window, so its p99
  // prints as a blank; faults and a resize plan share the open levels.
  ExperimentConfig cfg = GoldenConfig();
  cfg.strategies = {"range", "MAGIC"};
  cfg.mpls = {4};
  cfg.open = kOpenSpec;
  cfg.offered_loads = {0.2, 120};
  cfg.faults = "slow:node3@t=1s,x=2,for=1s";
  cfg.resize = kResizeSpec;
  ExpectPinned("open", cfg, /*components=*/false,
               {"7d9f236e538fcb15", "359af8ee41135ff3", "b29b445b27f614aa"});
}

TEST(ReportGoldenTest, ControlAndOpen) {
  ExperimentConfig cfg = GoldenConfig();
  cfg.strategies = {"range", "hash"};
  cfg.mpls = {4};
  cfg.repeats = 2;
  cfg.measure_ms = 4'000;
  cfg.control =
      "slo:p95<40ms,every=250ms,settle=2;scale:min=4,max=10;"
      "budget:frac=0.3;degrade:floor=8";
  cfg.open = kOpenSpec;
  cfg.offered_loads = {120};
  ExpectPinned("control", cfg, /*components=*/false,
               {"389c9e3882367910", "9aca7b0e02f0155a", "68ffd0c2dd52aea3"});
}

}  // namespace
}  // namespace declust::exp
