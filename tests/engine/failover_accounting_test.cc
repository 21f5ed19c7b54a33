// Regression tests pinning the retry/backoff/deadline accounting of the
// failover read path (satellite of the recovery PR's audit): the remaining
// backoff is charged against the deadline exactly once — checked before
// sleeping, never slept, never double-counted — and the charged backoff
// time equals only the backoffs actually slept.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/common/random.h"
#include "src/engine/operators.h"
#include "src/hw/node.h"
#include "src/obs/probe.h"
#include "src/sim/fault.h"
#include "tests/engine/select_one_page.h"

namespace declust::engine {
namespace {

struct AccountingRun {
  Status status;
  double done_at = -1;
  FaultStats stats;
  obs::QueryCosts costs;
};

sim::Task<> DriveAccess(hw::Node* node, hw::PageAddress page,
                        const OperatorCosts& costs, obs::QueryObs* qo,
                        FaultContext* fc, Status* out, double* done_at) {
  *out = co_await SelectOnePage(node, page, costs, /*pool=*/nullptr, fc, qo);
  *done_at = node->simulation()->now();
}

AccountingRun RunAccess(const std::string& spec, const FailoverPolicy& policy,
                        double deadline_ms = 1e18) {
  sim::Simulation sim;
  hw::HwParams params;
  params.num_processors = 2;
  auto plan = sim::FaultPlan::Parse(spec);
  EXPECT_TRUE(plan.ok());
  hw::Machine machine(&sim, params, RandomStream(7), &*plan, /*seed=*/7);
  OperatorCosts op_costs;
  AccountingRun run;
  obs::QueryObs qo;  // no probe: only the cost accumulators are live
  FaultContext fc{&policy, deadline_ms, &run.stats};
  sim.Spawn(DriveAccess(&machine.node(0), {3, 1}, op_costs, &qo, &fc,
                        &run.status, &run.done_at));
  sim.Run();
  run.costs = qo.costs;
  return run;
}

TEST(FailoverAccountingTest, ExhaustedRetriesChargeExactlySleptBackoff) {
  FailoverPolicy policy;
  policy.max_read_retries = 4;
  policy.backoff_base_ms = 1.0;
  policy.backoff_cap_ms = 64.0;
  const AccountingRun run = RunAccess("io:node0@t=0,rate=1", policy);
  ASSERT_TRUE(run.status.IsIoError()) << run.status.ToString();
  // One io_error per attempt; one retry per slept backoff; the final
  // failing attempt is not followed by a backoff.
  EXPECT_EQ(run.stats.io_errors, 5);
  EXPECT_EQ(run.stats.retries, 4);
  EXPECT_EQ(run.stats.io_errors, run.stats.retries + 1);
  EXPECT_EQ(run.stats.timeouts, 0);
  // Exactly the slept exponential backoffs: 1 + 2 + 4 + 8.
  EXPECT_DOUBLE_EQ(run.costs.backoff_ms, 15.0);
}

TEST(FailoverAccountingTest, DeadlineChargesRemainingBackoffExactlyOnce) {
  // base == cap == 50 with a 120 ms deadline: once now + 50 would cross the
  // deadline, the page read must give up *before* sleeping. The pending
  // backoff is charged against the deadline in that one comparison and
  // nowhere else — it is never slept and never added to backoff_ms.
  FailoverPolicy policy;
  policy.max_read_retries = 100;
  policy.backoff_base_ms = 50.0;
  policy.backoff_cap_ms = 50.0;
  const AccountingRun run =
      RunAccess("io:node0@t=0,rate=1", policy, /*deadline_ms=*/120.0);
  ASSERT_TRUE(run.status.IsDeadlineExceeded()) << run.status.ToString();
  // The deadline is counted once, on the attempt that would have crossed it.
  EXPECT_EQ(run.stats.timeouts, 1);
  // Every slept backoff was a full 50 ms; the final (unslept) one is not in
  // the charged time, so backoff_ms is an exact multiple of 50 that keeps
  // completion strictly inside the deadline.
  EXPECT_EQ(run.stats.io_errors, run.stats.retries + 1);
  EXPECT_DOUBLE_EQ(run.costs.backoff_ms, 50.0 * run.stats.retries);
  EXPECT_LT(run.done_at, 120.0);
  // ...and the *next* backoff really would have crossed: had the remaining
  // backoff not been charged, one more 50 ms sleep would fit before 120.
  EXPECT_GE(run.done_at + 50.0, 120.0);
}

TEST(FailoverAccountingTest, DeadlineNeverDoubleCountsAcrossRuns) {
  // Sweeping the deadline across several backoff boundaries: timeouts stays
  // exactly 1 (never 0, never 2) and the accounting identity holds at every
  // deadline, i.e. no path charges the remaining backoff twice.
  FailoverPolicy policy;
  policy.max_read_retries = 100;
  policy.backoff_base_ms = 10.0;
  policy.backoff_cap_ms = 40.0;
  for (const double deadline : {25.0, 45.0, 80.0, 150.0, 333.0}) {
    const AccountingRun run =
        RunAccess("io:node0@t=0,rate=1", policy, deadline);
    ASSERT_TRUE(run.status.IsDeadlineExceeded())
        << "deadline " << deadline << ": " << run.status.ToString();
    EXPECT_EQ(run.stats.timeouts, 1) << "deadline " << deadline;
    EXPECT_EQ(run.stats.io_errors, run.stats.retries + 1)
        << "deadline " << deadline;
    // Only attempt service time may straddle the deadline — never a whole
    // capped backoff, which the deadline check refuses to sleep.
    EXPECT_LT(run.done_at, deadline + policy.backoff_cap_ms)
        << "deadline " << deadline;
    // Charged backoff = slept backoff: the capped-exponential prefix sum.
    double expected = 0;
    double b = policy.backoff_base_ms;
    for (int i = 0; i < run.stats.retries; ++i) {
      expected += std::min(b, policy.backoff_cap_ms);
      b *= 2;
    }
    EXPECT_DOUBLE_EQ(run.costs.backoff_ms, expected)
        << "deadline " << deadline;
  }
}

TEST(FailoverAccountingTest, DeadDiskChargesNoBackoffAtAll) {
  FailoverPolicy policy;
  const AccountingRun run = RunAccess("disk:node0@t=0", policy);
  EXPECT_TRUE(run.status.IsUnavailable()) << run.status.ToString();
  EXPECT_EQ(run.stats.retries, 0);
  EXPECT_EQ(run.stats.timeouts, 0);
  EXPECT_DOUBLE_EQ(run.costs.backoff_ms, 0.0);
}

}  // namespace
}  // namespace declust::engine
