// Regression for the phantom-hit bug: BufferPool::Touch used to insert the
// page as resident on a miss *before* the disk read was issued, so a
// fault-injected read failure left the page cached and the retry (or any
// later access) scored a hit without ever reading the disk. The split
// Lookup/Insert API inserts only after a successful read; these tests drive
// the buffered read path through an `io:` fault plan and check the hit/miss
// counters against a hand-computed trace.
#include <gtest/gtest.h>

#include <string>

#include "src/engine/buffer_pool.h"
#include "src/engine/operators.h"
#include "src/hw/node.h"
#include "src/sim/fault.h"
#include "src/sim/simulation.h"
#include "tests/engine/select_one_page.h"

namespace declust::engine {
namespace {

sim::Task<> AccessThrice(hw::Node* node, BufferPool* pool,
                         const OperatorCosts& costs, FaultContext* fc,
                         double retry_at_ms, Status* first_status,
                         int64_t* resident_after_first) {
  // Access 1 lands inside the fault window and must fail.
  *first_status = co_await SelectOnePage(node, {3, 1}, costs, pool, fc);
  *resident_after_first = pool->resident();
  // Accesses 2 and 3 run after the window: a real read, then a real hit.
  co_await node->simulation()->WaitFor(retry_at_ms -
                                       node->simulation()->now());
  const Status second = co_await SelectOnePage(node, {3, 1}, costs, pool, fc);
  EXPECT_TRUE(second.ok()) << second.ToString();
  const Status third = co_await SelectOnePage(node, {3, 1}, costs, pool, fc);
  EXPECT_TRUE(third.ok()) << third.ToString();
}

TEST(BufferFaultRegressionTest, FailedReadNeverYieldsAPhantomHit) {
  sim::Simulation sim;
  hw::HwParams params;
  params.num_processors = 2;
  // Every read in [0ms, 200ms) fails; the first access completes well
  // inside that window, the later ones well after it.
  auto plan = sim::FaultPlan::Parse("io:node0@t=0,rate=1,for=200ms");
  ASSERT_TRUE(plan.ok());
  hw::Machine machine(&sim, params, RandomStream(7), &*plan, /*seed=*/7);

  BufferPool pool(8);
  OperatorCosts costs;
  FailoverPolicy policy;
  policy.max_read_retries = 0;  // first IoError aborts the access
  FaultStats stats;
  FaultContext fc{&policy, /*deadline_ms=*/1e18, &stats};

  Status first_status;
  int64_t resident_after_first = -1;
  sim.Spawn(AccessThrice(&machine.node(0), &pool, costs, &fc,
                         /*retry_at_ms=*/1'000.0, &first_status,
                         &resident_after_first));
  sim.Run();

  // Access 1: lookup miss, read fails -> the page must NOT be resident.
  EXPECT_TRUE(first_status.IsIoError()) << first_status.ToString();
  EXPECT_EQ(resident_after_first, 0)
      << "a failed read left the page cached (phantom hit bug)";
  EXPECT_EQ(stats.io_errors, 1);

  // Hand-computed trace: miss (failed read), miss (real read + insert),
  // hit. The old Touch semantics gave hits=2, misses=1 — the second access
  // scored a phantom hit off the failed read's insertion.
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.resident(), 1);
}

TEST(BufferFaultRegressionTest, RetriedReadInsertsExactlyOnce) {
  // With retries enabled and a window that outlasts the first few attempts,
  // the page becomes resident exactly once — after the first attempt that
  // succeeds — and every retry really goes to the disk (counted misses
  // stay at one: the retry loop re-reads without re-probing the pool).
  sim::Simulation sim;
  hw::HwParams params;
  params.num_processors = 2;
  auto plan = sim::FaultPlan::Parse("io:node0@t=0,rate=1,for=40ms");
  ASSERT_TRUE(plan.ok());
  hw::Machine machine(&sim, params, RandomStream(7), &*plan, /*seed=*/7);

  BufferPool pool(8);
  OperatorCosts costs;
  FailoverPolicy policy;
  policy.max_read_retries = 10;
  policy.backoff_base_ms = 8.0;
  policy.backoff_cap_ms = 16.0;
  FaultStats stats;
  FaultContext fc{&policy, /*deadline_ms=*/1e18, &stats};

  Status status;
  sim.Spawn([](hw::Node* node, BufferPool* p, OperatorCosts c,
               FaultContext* f, Status* out) -> sim::Task<> {
    *out = co_await SelectOnePage(node, {3, 1}, c, p, f);
  }(&machine.node(0), &pool, costs, &fc, &status));
  sim.Run();

  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_GT(stats.retries, 0);
  EXPECT_EQ(pool.misses(), 1u);  // one pool probe for the whole access
  EXPECT_EQ(pool.hits(), 0u);
  EXPECT_EQ(pool.resident(), 1);
}

}  // namespace
}  // namespace declust::engine
