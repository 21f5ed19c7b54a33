// Grammar properties of the ResizePlan spec parser: canonical round-trip
// fixed point, hardened rejection of malformed input (mirrors the
// FaultPlan/RecoveryPlan property suites — the grammars share the parsing
// core), and the membership-timeline validation rules.
#include <gtest/gtest.h>

#include <string>

#include "src/common/random.h"
#include "src/resize/plan.h"

namespace declust::resize {
namespace {

TEST(ResizePlanTest, ParsesFullEventsAndDefaults) {
  auto plan = ResizePlan::Parse(
      "add:node32-47@t=20s,rate=8,batch=16;remove:node4@t=60s");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->events().size(), 2u);
  const ResizeEvent& add = plan->events()[0];
  EXPECT_EQ(add.kind, ResizeEvent::Kind::kAdd);
  EXPECT_EQ(add.lo, 32);
  EXPECT_EQ(add.hi, 47);
  EXPECT_DOUBLE_EQ(add.at_ms, 20'000.0);
  EXPECT_DOUBLE_EQ(add.rate_mb_per_sec, 8.0);
  EXPECT_EQ(add.batch_pages, 16);
  const ResizeEvent& rm = plan->events()[1];
  EXPECT_EQ(rm.kind, ResizeEvent::Kind::kRemove);
  EXPECT_EQ(rm.lo, 4);
  EXPECT_EQ(rm.hi, 4);
  EXPECT_DOUBLE_EQ(rm.rate_mb_per_sec, 0.0);
  EXPECT_EQ(rm.batch_pages, 8);
}

TEST(ResizePlanTest, ParsesRebalanceKnobsAndSlicesOverride) {
  auto plan = ResizePlan::Parse(
      "slices:64;rebalance:auto@t=10s,every=500ms,threshold=1.4,settle=3,"
      "max_moves=2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->slices_override(), 64);
  ASSERT_EQ(plan->events().size(), 1u);
  const ResizeEvent& rb = plan->events()[0];
  EXPECT_EQ(rb.kind, ResizeEvent::Kind::kRebalance);
  EXPECT_DOUBLE_EQ(rb.at_ms, 10'000.0);
  EXPECT_DOUBLE_EQ(rb.every_ms, 500.0);
  EXPECT_DOUBLE_EQ(rb.threshold, 1.4);
  EXPECT_EQ(rb.settle, 3);
  EXPECT_EQ(rb.max_moves, 2);
  EXPECT_EQ(plan->NumMembershipEvents(), 0);
}

TEST(ResizePlanTest, EventsSortByTimeThenLowNode) {
  auto plan = ResizePlan::Parse(
      "remove:node5@t=2s;add:node33@t=1s;add:node34@t=2s");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->events().size(), 3u);
  EXPECT_EQ(plan->events()[0].lo, 33);
  EXPECT_EQ(plan->events()[1].lo, 5);
  EXPECT_EQ(plan->events()[2].lo, 34);
  EXPECT_EQ(plan->NumMembershipEvents(), 3);
}

TEST(ResizePlanTest, ToStringRoundTripIsAFixedPoint) {
  const char* specs[] = {
      "add:node32-47@t=20s,rate=8,batch=16;remove:node32-47@t=60s",
      "remove:node7@t=500ms",
      "slices:64;add:node8@t=1s",
      "rebalance:auto@t=10s,every=500ms,threshold=1.4,settle=3,max_moves=2",
      "  add:node8@t=1s ; remove:node8@t=9s,batch=1  ",
  };
  for (const char* spec : specs) {
    auto plan = ResizePlan::Parse(spec);
    ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status().ToString();
    const std::string canonical = plan->ToString();
    auto again = ResizePlan::Parse(canonical);
    ASSERT_TRUE(again.ok()) << canonical;
    EXPECT_EQ(again->ToString(), canonical) << "not a fixed point: " << spec;
    EXPECT_EQ(again->events().size(), plan->events().size());
    EXPECT_EQ(again->slices_override(), plan->slices_override());
  }
}

TEST(ResizePlanTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "add",                                // no target
      "add:node3",                          // no time
      "add:disk3@t=1s",                     // wrong target prefix
      "add:node@t=1s",                      // missing node number
      "add:node-1@t=1s",                    // negative node
      "add:node5-3@t=1s",                   // inverted range
      "add:node3@t=",                       // empty time
      "add:node3@t=abc",                    // junk time
      "add:node3@t=1s,t=2s",                // duplicate key
      "add:node3@t=1s,rate=1,rate=2",       // duplicate key
      "add:node3@t=1s,batch=0",             // batch must be >= 1
      "add:node3@t=1s,rate=-1",             // negative rate
      "add:node3@t=1s,threshold=2",         // rebalance-only key on add
      "add:node3@t=1s,bogus=1",             // unknown key
      "add:node3@t=1s garbage",             // trailing junk
      "add:node3@t=1sx",                    // bad suffix
      "add:node3@t=nan",                    // non-finite
      "add:node3@t=inf",                    // non-finite
      "repair:node3@t=1s",                  // recovery kinds are not resizes
      "rebalance:node3@t=1s",               // rebalance target must be auto
      "rebalance:auto@t=1s,every=0",        // every must be > 0
      "rebalance:auto@t=1s,threshold=0.5",  // threshold must be >= 1
      "rebalance:auto@t=1s,settle=0",       // settle must be >= 1
      "rebalance:auto@t=1s,max_moves=0",    // max_moves must be >= 1
      "slices:1",                           // slices must be >= 2
      "slices:abc",                         // junk slices
      "slices:8;slices:16",                 // duplicate slices item
  };
  for (const char* spec : bad) {
    auto plan = ResizePlan::Parse(spec);
    EXPECT_FALSE(plan.ok()) << "accepted: " << spec;
  }
}

TEST(ResizePlanTest, ValidateTracksTheMembershipTimeline) {
  // Adding an existing member is a spec bug.
  auto readd = ResizePlan::Parse("add:node3@t=1s");
  ASSERT_TRUE(readd.ok());
  EXPECT_TRUE(readd->Validate(8).IsInvalidArgument());
  // Removing a non-member is a spec bug.
  auto rm_out = ResizePlan::Parse("remove:node9@t=1s");
  ASSERT_TRUE(rm_out.ok());
  EXPECT_TRUE(rm_out->Validate(8).IsInvalidArgument());
  // Membership may never drop below 2.
  auto drain_all = ResizePlan::Parse("remove:node1-7@t=1s");
  ASSERT_TRUE(drain_all.ok());
  EXPECT_TRUE(drain_all->Validate(8).IsInvalidArgument());
  // Add-then-remove of the same range is legal and shrinks back.
  auto cycle = ResizePlan::Parse("add:node8-11@t=1s;remove:node8-11@t=2s");
  ASSERT_TRUE(cycle.ok());
  EXPECT_TRUE(cycle->Validate(8).ok());
  EXPECT_EQ(cycle->NumPhysicalNodes(8), 12);
  EXPECT_EQ(cycle->NumSlices(8), 12);
  // Remove-then-readd is legal too (the timeline is ordered by time).
  auto bounce = ResizePlan::Parse("remove:node3@t=1s;add:node3@t=2s");
  ASSERT_TRUE(bounce.ok());
  EXPECT_TRUE(bounce->Validate(8).ok());
  // At most one rebalance item.
  auto two_rb =
      ResizePlan::Parse("rebalance:auto@t=1s;rebalance:auto@t=2s");
  ASSERT_TRUE(two_rb.ok());
  EXPECT_TRUE(two_rb->Validate(8).IsInvalidArgument());
  // A slices override below the physical node count is rejected.
  auto low_slices = ResizePlan::Parse("slices:8;add:node8-15@t=1s");
  ASSERT_TRUE(low_slices.ok());
  EXPECT_TRUE(low_slices->Validate(8).IsInvalidArgument());
  EXPECT_EQ(low_slices->NumSlices(8), 16);
}

TEST(ResizePlanTest, RandomizedRoundTripNeverLosesEvents) {
  RandomStream rng(2026);
  for (int iter = 0; iter < 200; ++iter) {
    const int n = 1 + static_cast<int>(rng.Next() % 4);
    std::string spec;
    for (int i = 0; i < n; ++i) {
      if (i > 0) spec += ";";
      const int lo = static_cast<int>(rng.Next() % 32);
      // Appends only: GCC 12 at -O3 flags `"..." + std::to_string(...)`
      // temporaries under -Werror=restrict.
      spec += rng.Next() % 2 == 0 ? "add:node" : "remove:node";
      spec += std::to_string(lo);
      if (rng.Next() % 2 == 0) {
        spec += "-";
        spec += std::to_string(lo + static_cast<int>(rng.Next() % 8));
      }
      spec += "@t=";
      spec += std::to_string(rng.Next() % 100'000);
      spec += "ms";
      if (rng.Next() % 2 == 0) {
        spec += ",rate=";
        spec += std::to_string(rng.Next() % 50);
      }
      if (rng.Next() % 2 == 0) {
        spec += ",batch=";
        spec += std::to_string(1 + rng.Next() % 64);
      }
    }
    auto plan = ResizePlan::Parse(spec);
    // Timeline conflicts (double adds etc.) are Validate's business; the
    // parse itself must keep every event.
    ASSERT_TRUE(plan.ok()) << spec << ": " << plan.status().ToString();
    EXPECT_EQ(plan->events().size(), static_cast<size_t>(n)) << spec;
    auto again = ResizePlan::Parse(plan->ToString());
    ASSERT_TRUE(again.ok()) << plan->ToString();
    EXPECT_EQ(again->ToString(), plan->ToString());
  }
}

}  // namespace
}  // namespace declust::resize
