#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/decluster/berd.h"
#include "src/decluster/magic.h"
#include "src/decluster/range.h"
#include "src/engine/catalog.h"
#include "src/engine/operators.h"
#include "src/engine/system.h"
#include "src/sim/fault.h"
#include "src/workload/wisconsin.h"
#include "tests/engine/select_one_page.h"

namespace declust::engine {
namespace {

using workload::MakeMix;
using workload::ResourceClass;

storage::Relation MakeRel(int64_t n = 10'000) {
  workload::WisconsinOptions o;
  o.cardinality = n;
  o.seed = 31;
  return workload::MakeWisconsin(o);
}

// --- Chained-backup plan correctness -------------------------------------

TEST(ChainedBackupTest, BackupPlanMatchesPrimaryOverPredicateGrid) {
  const storage::Relation rel = MakeRel();
  auto part = decluster::RangePartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  hw::HwParams hw;
  CatalogOptions opts;
  opts.chained_backups = true;
  auto catalog = SystemCatalog::Build(&rel, part->get(), 0, 1, hw, opts);
  ASSERT_TRUE(catalog.ok());
  ASSERT_TRUE((*catalog)->has_backups());

  // The backup copy of every node's fragment must qualify exactly the same
  // tuples as the primary, for indexed access on either attribute and for
  // sequential scans.
  const std::vector<Predicate> grid = {
      {0, 0, 0},       {0, 1000, 1029}, {0, 5555, 5555}, {0, 0, 9999},
      {1, 2000, 2299}, {1, 0, 9999},    {1, 42, 42},
  };
  for (int n = 0; n < 8; ++n) {
    for (const Predicate& q : grid) {
      const auto primary = (*catalog)->PlanAccess(n, q).ValueOrDie();
      const auto backup = (*catalog)->PlanBackupAccess(n, q).ValueOrDie();
      EXPECT_EQ(primary.tuples, backup.tuples)
          << "node " << n << " attr " << q.attr << " [" << q.lo << ","
          << q.hi << "]";
      EXPECT_EQ(primary.data_page_count(), backup.data_page_count());
      const auto scan_p = (*catalog)->PlanAccess(n, q, true).ValueOrDie();
      const auto scan_b = (*catalog)->PlanBackupAccess(n, q, true).ValueOrDie();
      EXPECT_EQ(scan_p.tuples, scan_b.tuples);
    }
  }
}

TEST(ChainedBackupTest, BackupsDoNotMovePrimaryExtents) {
  const storage::Relation rel = MakeRel();
  auto part = decluster::RangePartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  hw::HwParams hw;
  CatalogOptions plain_opts;
  auto plain = SystemCatalog::Build(&rel, part->get(), 0, 1, hw, plain_opts);
  CatalogOptions backup_opts;
  backup_opts.chained_backups = true;
  auto backed = SystemCatalog::Build(&rel, part->get(), 0, 1, hw, backup_opts);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(backed.ok());

  // Primary physical page addresses must be identical with and without
  // backups — otherwise arming the fault injector would perturb the
  // failure-free simulation.
  const Predicate q{1, 2000, 2299};
  const auto expand = [](const AccessPlan& plan) {
    std::vector<hw::PageAddress> pages;
    plan.ForEachDataPage([&](hw::PageAddress p) { pages.push_back(p); });
    return pages;
  };
  for (int n = 0; n < 8; ++n) {
    const auto a = expand((*plain)->PlanAccess(n, q).ValueOrDie());
    const auto b = expand((*backed)->PlanAccess(n, q).ValueOrDie());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].cylinder, b[i].cylinder);
      EXPECT_EQ(a[i].slot, b[i].slot);
    }
  }
}

TEST(ChainedBackupTest, BerdAuxBackupMatchesPrimary) {
  const storage::Relation rel = MakeRel();
  auto part = decluster::BerdPartitioning::Create(rel, {0, 1}, 8);
  ASSERT_TRUE(part.ok());
  hw::HwParams hw;
  CatalogOptions opts;
  opts.chained_backups = true;
  auto catalog = SystemCatalog::Build(&rel, part->get(), 0, 1, hw, opts);
  ASSERT_TRUE(catalog.ok());
  for (int n = 0; n < 8; ++n) {
    const Predicate q{1, 3000, 3499};
    const auto primary = (*catalog)->PlanAuxAccess(n, q).ValueOrDie();
    const auto backup = (*catalog)->PlanBackupAuxAccess(n, q).ValueOrDie();
    EXPECT_EQ(primary.tuples, backup.tuples) << "aux node " << n;
  }
}

// --- Retry / backoff behaviour -------------------------------------------

sim::Task<> DriveAccess(hw::Node* node, hw::PageAddress page,
                        const OperatorCosts& costs, FaultContext* fc,
                        Status* out, double* done_at) {
  *out = co_await SelectOnePage(node, page, costs, nullptr, fc);
  *done_at = node->simulation()->now();
}

struct AccessRun {
  Status status;
  double done_at = -1;
  FaultStats stats;
};

AccessRun RunAccessWithFaults(const std::string& spec,
                              const FailoverPolicy& policy,
                              double deadline_ms = 1e18) {
  sim::Simulation sim;
  hw::HwParams params;
  params.num_processors = 2;
  auto plan = sim::FaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok());
  hw::Machine machine(&sim, params, RandomStream(7), &*plan, /*seed=*/7);
  OperatorCosts costs;
  AccessRun run;
  FaultContext fc{&policy, deadline_ms, &run.stats};
  sim.Spawn(DriveAccess(&machine.node(0), {3, 1}, costs, &fc, &run.status,
                        &run.done_at));
  sim.Run();
  return run;
}

TEST(RetryTest, TransientErrorsAreRetriedUpToTheCap) {
  FailoverPolicy policy;
  policy.max_read_retries = 3;
  // rate=1 makes every read fail: attempts 0..3 all error, then give up.
  const AccessRun run = RunAccessWithFaults("io:node0@t=0,rate=1", policy);
  EXPECT_TRUE(run.status.IsIoError()) << run.status.ToString();
  EXPECT_EQ(run.stats.retries, 3);
  EXPECT_EQ(run.stats.io_errors, 4);  // every attempt errored
  EXPECT_EQ(run.stats.timeouts, 0);
}

TEST(RetryTest, BackoffIsCappedExponential) {
  // Same failing workload under a tight and a loose backoff cap: the only
  // difference is the waits, so the capped run must finish strictly sooner,
  // by exactly the backoff the cap shaved off (deterministic simulation).
  FailoverPolicy capped;
  capped.max_read_retries = 6;
  capped.backoff_base_ms = 1.0;
  capped.backoff_cap_ms = 4.0;
  FailoverPolicy loose = capped;
  loose.backoff_cap_ms = 1'000.0;
  const AccessRun a = RunAccessWithFaults("io:node0@t=0,rate=1", capped);
  const AccessRun b = RunAccessWithFaults("io:node0@t=0,rate=1", loose);
  ASSERT_TRUE(a.status.IsIoError());
  ASSERT_TRUE(b.status.IsIoError());
  // capped waits: 1+2+4+4+4+4 = 19; loose: 1+2+4+8+16+32 = 63.
  EXPECT_DOUBLE_EQ(b.done_at - a.done_at, 63.0 - 19.0);
}

TEST(RetryTest, DeadlineCutsRetriesShort) {
  FailoverPolicy policy;
  policy.max_read_retries = 100;
  policy.backoff_base_ms = 50.0;
  policy.backoff_cap_ms = 50.0;
  const AccessRun run =
      RunAccessWithFaults("io:node0@t=0,rate=1", policy, /*deadline_ms=*/120);
  EXPECT_TRUE(run.status.IsDeadlineExceeded()) << run.status.ToString();
  EXPECT_EQ(run.stats.timeouts, 1);
  EXPECT_LT(run.stats.retries, 5);
}

TEST(RetryTest, DeadDiskFailsFastWithoutRetries) {
  FailoverPolicy policy;
  const AccessRun run = RunAccessWithFaults("disk:node0@t=0", policy);
  EXPECT_TRUE(run.status.IsUnavailable()) << run.status.ToString();
  EXPECT_EQ(run.stats.retries, 0);
  EXPECT_DOUBLE_EQ(run.done_at, 0.0);  // no service time consumed
}

// --- System-level failover ------------------------------------------------

struct SysRun {
  int64_t completed = 0;
  double qps = 0;
  FaultStats faults;
};

SysRun RunSystem(const std::string& strategy, const sim::FaultPlan* plan,
                 double measure_ms = 6'000) {
  const storage::Relation rel = MakeRel();
  const auto wl = MakeMix(ResourceClass::kLow, ResourceClass::kLow);
  std::unique_ptr<decluster::Partitioning> part;
  if (strategy == "range") {
    part = std::move(
        decluster::RangePartitioning::Create(rel, {0, 1}, 16).ValueOrDie());
  } else if (strategy == "BERD") {
    part = std::move(
        decluster::BerdPartitioning::Create(rel, {0, 1}, 16).ValueOrDie());
  } else {
    part = std::move(
        decluster::MagicPartitioning::Create(rel, {0, 1}, wl, 16)
            .ValueOrDie());
  }
  sim::Simulation sim;
  SystemConfig config;
  config.hw.num_processors = 16;
  config.multiprogramming_level = 8;
  config.fault_plan = plan;
  System system(&sim, config, &rel, part.get(), &wl);
  EXPECT_TRUE(system.Init().ok());
  system.Start();
  sim.RunUntil(1'000);
  system.metrics().StartMeasurement(sim.now());
  sim.RunUntil(1'000 + measure_ms);
  SysRun r;
  r.completed = system.metrics().completed_in_window();
  r.qps = system.metrics().ThroughputQps(sim.now());
  r.faults = system.metrics().faults();
  return r;
}

TEST(SystemFailoverTest, OneFailedDiskFailsOverWithoutLosingQueries) {
  auto plan = sim::FaultPlan::Parse("disk:node3@t=2s");
  ASSERT_TRUE(plan.ok());
  for (const char* strategy : {"range", "BERD", "MAGIC"}) {
    const SysRun run = RunSystem(strategy, &*plan);
    EXPECT_GT(run.completed, 50) << strategy;
    EXPECT_GT(run.faults.failovers, 0) << strategy;
    // Chained declustering keeps every fragment reachable, so no query may
    // fail outright under a single disk failure.
    EXPECT_EQ(run.faults.failed_queries, 0) << strategy;
  }
}

TEST(SystemFailoverTest, ArmedButInactivePlanChangesNothing) {
  // An armed injector whose only event fires beyond the horizon must
  // reproduce the unarmed run's metrics exactly.
  auto plan = sim::FaultPlan::Parse("disk:node3@t=3600s");
  ASSERT_TRUE(plan.ok());
  const SysRun armed = RunSystem("MAGIC", &*plan);
  const SysRun bare = RunSystem("MAGIC", nullptr);
  EXPECT_EQ(armed.completed, bare.completed);
  EXPECT_DOUBLE_EQ(armed.qps, bare.qps);
  EXPECT_EQ(armed.faults.failovers, 0);
  EXPECT_EQ(armed.faults.io_errors, 0);
}

TEST(SystemFailoverTest, NodeCrashRecoversAndQueriesResume) {
  auto plan = sim::FaultPlan::Parse("crash:node5@t=2s,down=1s");
  ASSERT_TRUE(plan.ok());
  const SysRun run = RunSystem("range", &*plan);
  EXPECT_GT(run.completed, 50);
  // While node 5 is down its sites fail over to the chained backup.
  EXPECT_GT(run.faults.failovers, 0);
  // After recovery the system keeps completing queries; the crash alone
  // must not deadlock the closed loop.
  EXPECT_GT(run.qps, 0.0);
}

TEST(SystemFailoverTest, RejectsPlanTargetingTheHostNode) {
  const storage::Relation rel = MakeRel();
  const auto wl = MakeMix(ResourceClass::kLow, ResourceClass::kLow);
  auto part = decluster::RangePartitioning::Create(rel, {0, 1}, 16);
  ASSERT_TRUE(part.ok());
  auto plan = sim::FaultPlan::Parse("disk:node16@t=1s");  // host node id
  ASSERT_TRUE(plan.ok());
  sim::Simulation sim;
  SystemConfig config;
  config.hw.num_processors = 16;
  config.fault_plan = &*plan;
  System system(&sim, config, &rel, part->get(), &wl);
  EXPECT_TRUE(system.Init().IsInvalidArgument());
}

}  // namespace
}  // namespace declust::engine
