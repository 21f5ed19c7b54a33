// The plan grammar behind --faults, --recovery, --resize, --open and
// --control (src/common/spec), pinned three ways:
//   * an accept corpus: every spec the plan tests, tools/ci_check.sh,
//     bench_e2e's workloads, README, EXPERIMENTS and the header comments
//     use, with the fields and the ToString each parsed to under the five
//     hand-written parsers this grammar replaced — both must stay exact;
//   * a reject corpus: one spec per rejection path of each plan, with the
//     exact message the grammar derives from the plan's schema;
//   * a walk over every plan's schema: each numeric head and key rejects
//     nan, inf, -inf, hex and the empty value, so a key added later is
//     covered without touching this file.
#include "src/common/spec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/control/plan.h"
#include "src/recover/plan.h"
#include "src/resize/plan.h"
#include "src/sim/fault.h"
#include "src/workload/open.h"

namespace declust::spec {
namespace {

enum class Plan { kFaults, kRecovery, kResize, kOpen, kControl };

// The shortest %g form that reads back as exactly `v`.
std::string G(double v) {
  char buf[40];
  for (int precision = 6;; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (precision == 17 || std::strtod(buf, nullptr) == v) return buf;
  }
}

// Every field each plan exposes, in one line.
std::string Describe(const sim::FaultPlan& p) {
  std::string s;
  for (const auto& e : p.events()) {
    s += "{" + std::to_string(static_cast<int>(e.kind)) + " " +
         std::to_string(e.node) + " " + G(e.at_ms) + " " + G(e.duration_ms) +
         " " + G(e.rate) + " " + G(e.factor) + "}";
  }
  return s;
}
std::string Describe(const recover::RecoveryPlan& p) {
  std::string s;
  for (const auto& e : p.events()) {
    s += "{" + std::to_string(e.node) + " " + G(e.at_ms) + " " +
         G(e.rate_mb_per_sec) + " " + std::to_string(e.batch_pages) + "}";
  }
  return s;
}
std::string Describe(const resize::ResizePlan& p) {
  std::string s = "slices=" + std::to_string(p.slices_override());
  for (const auto& e : p.events()) {
    s += " {" + std::to_string(static_cast<int>(e.kind)) + " " +
         std::to_string(e.lo) + " " + std::to_string(e.hi) + " " +
         G(e.at_ms) + " " + G(e.rate_mb_per_sec) + " " +
         std::to_string(e.batch_pages) + " " + G(e.every_ms) + " " +
         G(e.threshold) + " " + std::to_string(e.settle) + " " +
         std::to_string(e.max_moves) + "}";
  }
  return s;
}
std::string Describe(const workload::OpenPlan& p) {
  std::string s = "rates";
  for (const auto& r : p.rates()) s += " " + G(r.at_ms) + "/" + G(r.per_sec);
  s += " bursts";
  for (const auto& b : p.bursts()) {
    s += " " + G(b.at_ms) + "/" + std::to_string(b.count);
  }
  s += " zipf=" + G(p.zipf_s()) + " tail=" + G(p.tail_p()) + "/" +
       G(p.tail_x()) + " cap=" + std::to_string(p.max_in_flight()) +
       " relations";
  for (const auto& r : p.extra_relations()) {
    s += " " + std::to_string(r.cardinality) + "/" + G(r.weight) + "/" +
         G(r.correlation);
  }
  return s;
}
std::string Describe(const control::ControlPlan& p) {
  if (p.empty()) return "empty";
  const auto& o = p.slo();
  std::string s = "slo " + std::to_string(o.quantile) + " " + G(o.bound_ms) +
                  " " + G(o.every_ms) + " " + std::to_string(o.settle) + " " +
                  G(o.cooldown_ms) + " " + G(o.low);
  if (p.has_scale()) {
    const auto& c = p.scale();
    s += " scale " + std::to_string(c.min_nodes) + " " +
         std::to_string(c.max_nodes) + " " + std::to_string(c.step) + " " +
         G(c.rate_mb_per_sec) + " " + std::to_string(c.batch_pages);
  }
  s += " budget " + G(p.budget().frac) + " " +
       std::to_string(p.budget().concurrent);
  if (p.has_degrade()) {
    s += " degrade " + std::to_string(p.degrade().floor) + " " +
         G(p.degrade().factor);
  }
  return s;
}

struct Parsed {
  Status status;
  std::string canonical;
  std::string fields;
};

template <typename P>
Parsed Run(std::string_view spec) {
  auto plan = P::Parse(spec);
  if (!plan.ok()) return {plan.status(), "", ""};
  return {Status::OK(), plan->ToString(), Describe(*plan)};
}

Parsed Parse(Plan plan, std::string_view spec) {
  switch (plan) {
    case Plan::kFaults:
      return Run<sim::FaultPlan>(spec);
    case Plan::kRecovery:
      return Run<recover::RecoveryPlan>(spec);
    case Plan::kResize:
      return Run<resize::ResizePlan>(spec);
    case Plan::kOpen:
      return Run<workload::OpenPlan>(spec);
    case Plan::kControl:
      break;
  }
  return Run<control::ControlPlan>(spec);
}

struct Accepted {
  Plan plan;
  const char* spec;
  const char* canonical;
  const char* fields;
};

// Captured from the hand-written parsers the grammar replaced.
const Accepted kAccepted[] = {
    {Plan::kFaults,
     "  disk:node1@t=2s ; ;crash:node0@t=1s,down=2s  ",
     "crash:node0@t=1s,down=2s;disk:node1@t=2s",
     "{3 0 1000 2000 0.05 2}{0 1 2000 inf 0.05 2}"},
    {Plan::kFaults,
     "crash:node1@t=1ms",
     "crash:node1@t=1ms",
     "{3 1 1 inf 0.05 2}"},
    {Plan::kFaults,
     "crash:node1@t=2s,down=3s",
     "crash:node1@t=2s,down=3s",
     "{3 1 2000 3000 0.05 2}"},
    {Plan::kFaults,
     "crash:node4@t=1s",
     "crash:node4@t=1s",
     "{3 4 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "crash:node5@t=0.5,down=0",
     "crash:node5@t=500ms,down=0s",
     "{3 5 500 0 0.05 2}"},
    {Plan::kFaults,
     "crash:node5@t=2s,down=1s",
     "crash:node5@t=2s,down=1s",
     "{3 5 2000 1000 0.05 2}"},
    {Plan::kFaults,
     "disk: node3 @t=1s",
     "disk:node3@t=1s",
     "{0 3 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node+3@t=1s",
     "disk:node3@t=1s",
     "{0 3 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node0@t=0",
     "disk:node0@t=0s",
     "{0 0 0 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node0@t=0s",
     "disk:node0@t=0s",
     "{0 0 0 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node0@t=0s;disk:node2@t=0s",
     "disk:node0@t=0s;disk:node2@t=0s",
     "{0 0 0 inf 0.05 2}{0 2 0 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node0@t=1050ms",
     "disk:node0@t=1050ms",
     "{0 0 1050 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node0@t=1e300",
     "disk:node0@t=1e+303ms",
     "{0 0 1e+303 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node0@t=1s;",
     "disk:node0@t=1s",
     "{0 0 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node16@t=1s",
     "disk:node16@t=1s",
     "{0 16 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node1@t=1s",
     "disk:node1@t=1s",
     "{0 1 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node1@t=1s;io:node3@t=0,rate=0.02",
     "io:node3@t=0s,rate=0.02;disk:node1@t=1s",
     "{1 3 0 inf 0.02 2}{0 1 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node2@t=1200ms",
     "disk:node2@t=1200ms",
     "{0 2 1200 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node2@t=1s",
     "disk:node2@t=1s",
     "{0 2 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node2@t=1s;io:node3@t=0,rate=0.5",
     "io:node3@t=0s,rate=0.5;disk:node2@t=1s",
     "{1 3 0 inf 0.5 2}{0 2 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node2@t=2s;slow:node5@t=9s,x=3,for=2s",
     "disk:node2@t=2s;slow:node5@t=9s,x=3,for=2s",
     "{0 2 2000 inf 0.05 2}{2 5 9000 2000 0.05 3}"},
    {Plan::kFaults,
     "disk:node2@t=5s",
     "disk:node2@t=5s",
     "{0 2 5000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node2@t=800ms",
     "disk:node2@t=800ms",
     "{0 2 800 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node3@t=2s",
     "disk:node3@t=2s",
     "{0 3 2000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node3@t=3600s",
     "disk:node3@t=3600s",
     "{0 3 3.6e+06 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node3@t=5s",
     "disk:node3@t=5s",
     "{0 3 5000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node3@t=5s;io:node7@t=0,rate=0.05",
     "io:node7@t=0s,rate=0.05;disk:node3@t=5s",
     "{1 7 0 inf 0.05 2}{0 3 5000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node3@t=5s;io:node7@t=100ms,rate=0.05,for=2s;slow:node1@t=0ms,x="
     "4,for=1s;crash:node2@t=3s,down=500ms",
     "slow:node1@t=0s,x=4,for=1s;io:node7@t=100ms,rate=0.05,for=2s;crash:no"
     "de2@t=3s,down=500ms;disk:node3@t=5s",
     "{2 1 0 1000 0.05 4}{1 7 100 2000 0.05 2}{3 2 3000 500 0.05 2}{0 3 500"
     "0 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node8@t=2s",
     "disk:node8@t=2s",
     "{0 8 2000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node99@t=1s",
     "disk:node99@t=1s",
     "{0 99 1000 inf 0.05 2}"},
    {Plan::kFaults,
     "disk:node9@t=2s",
     "disk:node9@t=2s",
     "{0 9 2000 inf 0.05 2}"},
    {Plan::kFaults,
     "io:node0@t=0,rate=0.05",
     "io:node0@t=0s,rate=0.05",
     "{1 0 0 inf 0.05 2}"},
    {Plan::kFaults,
     "io:node0@t=0,rate=0.5;io:node1@t=0,rate=0.5",
     "io:node0@t=0s,rate=0.5;io:node1@t=0s,rate=0.5",
     "{1 0 0 inf 0.5 2}{1 1 0 inf 0.5 2}"},
    {Plan::kFaults,
     "io:node0@t=0,rate=1",
     "io:node0@t=0s,rate=1",
     "{1 0 0 inf 1 2}"},
    {Plan::kFaults,
     "io:node0@t=0,rate=1,for=200ms",
     "io:node0@t=0s,rate=1,for=200ms",
     "{1 0 0 200 1 2}"},
    {Plan::kFaults,
     "io:node0@t=0,rate=1,for=40ms",
     "io:node0@t=0s,rate=1,for=40ms",
     "{1 0 0 40 1 2}"},
    {Plan::kFaults,
     "io:node0@t=1e3ms,rate=.5",
     "io:node0@t=1s,rate=0.5",
     "{1 0 1000 inf 0.5 2}"},
    {Plan::kFaults,
     "io:node1048576@t=0",
     "io:node1048576@t=0s,rate=0.05",
     "{1 1048576 0 inf 0.05 2}"},
    {Plan::kFaults,
     "io:node1@t=1.5s,rate=0.25,for=750ms",
     "io:node1@t=1500ms,rate=0.25,for=750ms",
     "{1 1 1500 750 0.25 2}"},
    {Plan::kFaults,
     "slow:node0@t=1s,x=4,for=2s",
     "slow:node0@t=1s,x=4,for=2s",
     "{2 0 1000 2000 0.05 4}"},
    {Plan::kFaults,
     "slow:node1@ t=2s , x=3 ,for=1s",
     "slow:node1@t=2s,x=3,for=1s",
     "{2 1 2000 1000 0.05 3}"},
    {Plan::kFaults,
     "slow:node2@t=250ms,x=1.5",
     "slow:node2@t=250ms,x=1.5",
     "{2 2 250 inf 0.05 1.5}"},
    {Plan::kRecovery,
     "  repair:node1@t=1s ; repair:node2@t=2s,batch=1  ",
     "repair:node1@t=1s;repair:node2@t=2s,batch=1",
     "{1 1000 0 8}{2 2000 0 1}"},
    {Plan::kRecovery,
     "repair:node1@t=250ms,batch=+3,rate=1e9",
     "repair:node1@t=250ms,rate=1e+09,batch=3",
     "{1 250 1e+09 3}"},
    {Plan::kRecovery,
     "repair:node1@t=2s",
     "repair:node1@t=2s",
     "{1 2000 0 8}"},
    {Plan::kRecovery,
     "repair:node2@t=1400ms",
     "repair:node2@t=1400ms",
     "{2 1400 0 8}"},
    {Plan::kRecovery,
     "repair:node2@t=1s",
     "repair:node2@t=1s",
     "{2 1000 0 8}"},
    {Plan::kRecovery,
     "repair:node2@t=2200ms",
     "repair:node2@t=2200ms",
     "{2 2200 0 8}"},
    {Plan::kRecovery,
     "repair:node2@t=2200ms,rate=0.1",
     "repair:node2@t=2200ms,rate=0.1",
     "{2 2200 0.1 8}"},
    {Plan::kRecovery,
     "repair:node2@t=2200ms,rate=4,batch=4",
     "repair:node2@t=2200ms,rate=4,batch=4",
     "{2 2200 4 4}"},
    {Plan::kRecovery,
     "repair:node2@t=2s",
     "repair:node2@t=2s",
     "{2 2000 0 8}"},
    {Plan::kRecovery,
     "repair:node2@t=2s;repair:node2@t=3s",
     "repair:node2@t=2s;repair:node2@t=3s",
     "{2 2000 0 8}{2 3000 0 8}"},
    {Plan::kRecovery,
     "repair:node2@t=500ms",
     "repair:node2@t=500ms",
     "{2 500 0 8}"},
    {Plan::kRecovery,
     "repair:node2@t=6s",
     "repair:node2@t=6s",
     "{2 6000 0 8}"},
    {Plan::kRecovery,
     "repair:node3@t=12s,rate=0,batch=8",
     "repair:node3@t=12s",
     "{3 12000 0 8}"},
    {Plan::kRecovery,
     "repair:node3@t=12s,rate=4.5,batch=16",
     "repair:node3@t=12s,rate=4.5,batch=16",
     "{3 12000 4.5 16}"},
    {Plan::kRecovery,
     "repair:node3@t=1s",
     "repair:node3@t=1s",
     "{3 1000 0 8}"},
    {Plan::kRecovery,
     "repair:node3@t=2s",
     "repair:node3@t=2s",
     "{3 2000 0 8}"},
    {Plan::kRecovery,
     "repair:node5@t=2s;repair:node1@t=1s;repair:node0@t=2s",
     "repair:node1@t=1s;repair:node0@t=2s;repair:node5@t=2s",
     "{1 1000 0 8}{0 2000 0 8}{5 2000 0 8}"},
    {Plan::kResize,
     "add:node32-47@t=20s,rate=8,batch=16;remove:node32-47@t=60s",
     "add:node32-47@t=20s,rate=8,batch=16;remove:node32-47@t=60s",
     "slices=0 {0 32 47 20000 8 16 2000 1.5 2 4} {1 32 47 60000 0 8 2000 1."
     "5 2 4}"},
    {Plan::kResize,
     "add:node32-47@t=20s,rate=8,batch=16;remove:node4@t=60s",
     "add:node32-47@t=20s,rate=8,batch=16;remove:node4@t=60s",
     "slices=0 {0 32 47 20000 8 16 2000 1.5 2 4} {1 4 4 60000 0 8 2000 1.5 "
     "2 4}"},
    {Plan::kResize,
     "add:node32-47@t=20s;remove:node32-47@t=60s",
     "add:node32-47@t=20s;remove:node32-47@t=60s",
     "slices=0 {0 32 47 20000 0 8 2000 1.5 2 4} {1 32 47 60000 0 8 2000 1.5"
     " 2 4}"},
    {Plan::kResize,
     "add:node32-47@t=4s;remove:node32-47@t=45s",
     "add:node32-47@t=4s;remove:node32-47@t=45s",
     "slices=0 {0 32 47 4000 0 8 2000 1.5 2 4} {1 32 47 45000 0 8 2000 1.5 "
     "2 4}"},
    {Plan::kResize,
     "add:node3@t=1s",
     "add:node3@t=1s",
     "slices=0 {0 3 3 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "add:node4@t=1s",
     "add:node4@t=1s",
     "slices=0 {0 4 4 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "add:node4@t=1s,rate=0.05,batch=4",
     "add:node4@t=1s,rate=0.05,batch=4",
     "slices=0 {0 4 4 1000 0.05 4 2000 1.5 2 4}"},
    {Plan::kResize,
     "add:node7-7@t=1s",
     "add:node7@t=1s",
     "slices=0 {0 7 7 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "add:node8-11@t=1s",
     "add:node8-11@t=1s",
     "slices=0 {0 8 11 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "add:node8-11@t=1s;remove:node8-11@t=2s",
     "add:node8-11@t=1s;remove:node8-11@t=2s",
     "slices=0 {0 8 11 1000 0 8 2000 1.5 2 4} {1 8 11 2000 0 8 2000 1.5 2 4"
     "}"},
    {Plan::kResize,
     "add:node8-11@t=2s",
     "add:node8-11@t=2s",
     "slices=0 {0 8 11 2000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "add:node8@t=1s",
     "add:node8@t=1s",
     "slices=0 {0 8 8 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "add:node8@t=1s ; remove:node8@t=9s,batch=1",
     "add:node8@t=1s;remove:node8@t=9s,batch=1",
     "slices=0 {0 8 8 1000 0 8 2000 1.5 2 4} {1 8 8 9000 0 1 2000 1.5 2 4}"},
    {Plan::kResize,
     "add:node8@t=1s;remove:node8@t=2s",
     "add:node8@t=1s;remove:node8@t=2s",
     "slices=0 {0 8 8 1000 0 8 2000 1.5 2 4} {1 8 8 2000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "add:node8@t=800ms;remove:node8@t=2400ms",
     "add:node8@t=800ms;remove:node8@t=2400ms",
     "slices=0 {0 8 8 800 0 8 2000 1.5 2 4} {1 8 8 2400 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "rebalance: auto @t=1s,batch=1048576",
     "rebalance:auto@t=1s,batch=1048576",
     "slices=0 {2 0 0 1000 0 1048576 2000 1.5 2 4}"},
    {Plan::kResize,
     "rebalance:auto@t=10s,every=500ms,threshold=1.4,settle=3,max_moves=2",
     "rebalance:auto@t=10s,every=500ms,threshold=1.4,settle=3,max_moves=2",
     "slices=0 {2 0 0 10000 0 8 500 1.4 3 2}"},
    {Plan::kResize,
     "rebalance:auto@t=10s,threshold=1.4",
     "rebalance:auto@t=10s,threshold=1.4",
     "slices=0 {2 0 0 10000 0 8 2000 1.4 2 4}"},
    {Plan::kResize,
     "rebalance:auto@t=1s,every=2s,threshold=1.5,settle=2,max_moves=4,rate="
     "1,batch=9",
     "rebalance:auto@t=1s,rate=1,batch=9",
     "slices=0 {2 0 0 1000 1 9 2000 1.5 2 4}"},
    {Plan::kResize,
     "rebalance:auto@t=1s;rebalance:auto@t=2s",
     "rebalance:auto@t=1s;rebalance:auto@t=2s",
     "slices=0 {2 0 0 1000 0 8 2000 1.5 2 4} {2 0 0 2000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "remove:node1-7@t=1s",
     "remove:node1-7@t=1s",
     "slices=0 {1 1 7 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "remove:node3@t=1s;add:node3@t=2s",
     "remove:node3@t=1s;add:node3@t=2s",
     "slices=0 {1 3 3 1000 0 8 2000 1.5 2 4} {0 3 3 2000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "remove:node4-5@t=3s,rate=2.5,batch=2",
     "remove:node4-5@t=3s,rate=2.5,batch=2",
     "slices=0 {1 4 5 3000 2.5 2 2000 1.5 2 4}"},
    {Plan::kResize,
     "remove:node5@t=2s;add:node33@t=1s;add:node34@t=2s",
     "add:node33@t=1s;remove:node5@t=2s;add:node34@t=2s",
     "slices=0 {0 33 33 1000 0 8 2000 1.5 2 4} {1 5 5 2000 0 8 2000 1.5 2 4"
     "} {0 34 34 2000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "remove:node7@t=500ms",
     "remove:node7@t=500ms",
     "slices=0 {1 7 7 500 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "remove:node9@t=1s",
     "remove:node9@t=1s",
     "slices=0 {1 9 9 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "slices: 12 ;add:node8@t=1s",
     "slices:12;add:node8@t=1s",
     "slices=12 {0 8 8 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "slices:32;add:node8@t=1s",
     "slices:32;add:node8@t=1s",
     "slices=32 {0 8 8 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "slices:4096",
     "slices:4096",
     "slices=4096"},
    {Plan::kResize,
     "slices:64;add:node8@t=1s",
     "slices:64;add:node8@t=1s",
     "slices=64 {0 8 8 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "slices:6;add:node4-5@t=1s;remove:node4-5@t=6s",
     "slices:6;add:node4-5@t=1s;remove:node4-5@t=6s",
     "slices=6 {0 4 5 1000 0 8 2000 1.5 2 4} {1 4 5 6000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "slices:8;add:node8-15@t=1s",
     "slices:8;add:node8-15@t=1s",
     "slices=8 {0 8 15 1000 0 8 2000 1.5 2 4}"},
    {Plan::kResize,
     "slices:8;rebalance:auto@t=1s,every=2s,threshold=1.5,settle=2,max_move"
     "s=2",
     "slices:8;rebalance:auto@t=1s,max_moves=2",
     "slices=8 {2 0 0 1000 0 8 2000 1.5 2 2}"},
    {Plan::kOpen,
     "burst:1@t=0",
     "burst:1@t=0s",
     "rates bursts 0/1 zipf=0 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "burst:1@t=0s;relation:card=100,corr=-0.25",
     "burst:1@t=0s;relation:card=100,corr=-0.25",
     "rates bursts 0/1 zipf=0 tail=0/1 cap=4096 relations 100/1/-0.25"},
    {Plan::kOpen,
     "rate: 5 @ t=1s",
     "rate:5@t=1s",
     "rates 1000/5 bursts zipf=0 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "rate:0@t=250ms;burst:3@t=2s;burst:1@t=1s",
     "rate:0@t=250ms;burst:1@t=1s;burst:3@t=2s",
     "rates 250/0 bursts 1000/1 2000/3 zipf=0 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "rate:10",
     "rate:10@t=0s",
     "rates 0/10 bursts zipf=0 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "rate:100",
     "rate:100@t=0s",
     "rates 0/100 bursts zipf=0 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "rate:100;rate:200@t=4s;burst:8@t=2s;burst:8@t=6s",
     "rate:100@t=0s;rate:200@t=4s;burst:8@t=2s;burst:8@t=6s",
     "rates 0/100 4000/200 bursts 2000/8 6000/8 zipf=0 tail=0/1 cap=4096 re"
     "lations"},
    {Plan::kOpen,
     "rate:100;rate:250@t=2s;burst:4@t=1s",
     "rate:100@t=0s;rate:250@t=2s;burst:4@t=1s",
     "rates 0/100 2000/250 bursts 1000/4 zipf=0 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "rate:100;rate:250@t=2s;burst:64@t=500ms",
     "rate:100@t=0s;rate:250@t=2s;burst:64@t=500ms",
     "rates 0/100 2000/250 bursts 500/64 zipf=0 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "rate:100;rate:250@t=2s;burst:64@t=500ms;zipf:0.8;tail:p=0.05,x=20;rel"
     "ation:card=50000,weight=2,corr=0.5;relation:card=3000;cap:256",
     "rate:100@t=0s;rate:250@t=2s;burst:64@t=500ms;zipf:0.8;tail:p=0.05,x=2"
     "0;relation:card=50000,weight=2,corr=0.5;relation:card=3000;cap:256",
     "rates 0/100 2000/250 bursts 500/64 zipf=0.8 tail=0.05/20 cap=256 rela"
     "tions 50000/2/0.5 3000/1/0"},
    {Plan::kOpen,
     "rate:100;tail:p=0.5,x=10",
     "rate:100@t=0s;tail:p=0.5,x=10",
     "rates 0/100 bursts zipf=0 tail=0.5/10 cap=4096 relations"},
    {Plan::kOpen,
     "rate:100;zipf:0.8;relation:card=10000,weight=1,corr=1;cap:1024",
     "rate:100@t=0s;zipf:0.8;relation:card=10000,corr=1;cap:1024",
     "rates 0/100 bursts zipf=0.8 tail=0/1 cap=1024 relations 10000/1/1"},
    {Plan::kOpen,
     "rate:100;zipf:0.8;relation:card=20000,weight=1,corr=1;cap:1024",
     "rate:100@t=0s;zipf:0.8;relation:card=20000,corr=1;cap:1024",
     "rates 0/100 bursts zipf=0.8 tail=0/1 cap=1024 relations 20000/1/1"},
    {Plan::kOpen,
     "rate:100;zipf:1.5",
     "rate:100@t=0s;zipf:1.5",
     "rates 0/100 bursts zipf=1.5 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "rate:100@t=1s;rate:0@t=3s;rate:40@t=5s",
     "rate:100@t=1s;rate:0@t=3s;rate:40@t=5s",
     "rates 1000/100 3000/0 5000/40 bursts zipf=0 tail=0/1 cap=4096 relatio"
     "ns"},
    {Plan::kOpen,
     "rate:12.5@t=1500ms;zipf:1.2;cap:32",
     "rate:12.5@t=1500ms;zipf:1.2;cap:32",
     "rates 1500/12.5 bursts zipf=1.2 tail=0/1 cap=32 relations"},
    {Plan::kOpen,
     "rate:200;cap:2",
     "rate:200@t=0s;cap:2",
     "rates 0/200 bursts zipf=0 tail=0/1 cap=2 relations"},
    {Plan::kOpen,
     "rate:200;cap:32",
     "rate:200@t=0s;cap:32",
     "rates 0/200 bursts zipf=0 tail=0/1 cap=32 relations"},
    {Plan::kOpen,
     "rate:200;zipf:0.8;relation:card=50000,weight=0.5;cap:256",
     "rate:200@t=0s;zipf:0.8;relation:card=50000,weight=0.5;cap:256",
     "rates 0/200 bursts zipf=0.8 tail=0/1 cap=256 relations 50000/0.5/0"},
    {Plan::kOpen,
     "rate:50",
     "rate:50@t=0s",
     "rates 0/50 bursts zipf=0 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "rate:50;tail:p=0.1,x=8;relation:card=4000,weight=0.5",
     "rate:50@t=0s;tail:p=0.1,x=8;relation:card=4000,weight=0.5",
     "rates 0/50 bursts zipf=0 tail=0.1/8 cap=4096 relations 4000/0.5/0"},
    {Plan::kOpen,
     "rate:50;zipf:0.8;tail:p=0.05,x=5;relation:card=2000,weight=1",
     "rate:50@t=0s;zipf:0.8;tail:p=0.05,x=5;relation:card=2000",
     "rates 0/50 bursts zipf=0.8 tail=0.05/5 cap=4096 relations 2000/1/0"},
    {Plan::kOpen,
     "relation:card=17179869184;rate:1e9",
     "rate:1e+09@t=0s;relation:card=17179869184",
     "rates 0/1e+09 bursts zipf=0 tail=0/1 cap=4096 relations 17179869184/1"
     "/0"},
    {Plan::kOpen,
     "relation:card=2,weight=1e-9,corr=-1;rate:1",
     "rate:1@t=0s;relation:card=2,weight=1e-09,corr=-1",
     "rates 0/1 bursts zipf=0 tail=0/1 cap=4096 relations 2/1e-09/-1"},
    {Plan::kOpen,
     "tail:p=0,x=1;rate:5",
     "rate:5@t=0s;tail:p=0,x=1",
     "rates 0/5 bursts zipf=0 tail=0/1 cap=4096 relations"},
    {Plan::kOpen,
     "tail:p=0.999999,x=1e6;zipf:8;cap:4194304;burst:1048576@t=0ms",
     "burst:1048576@t=0s;zipf:8;tail:p=0.999999,x=1e+06;cap:4194304",
     "rates bursts 0/1048576 zipf=8 tail=0.999999/1e+06 cap=4194304 relatio"
     "ns"},
    {Plan::kOpen,
     "zipf:1",
     "zipf:1",
     "rates bursts zipf=1 tail=0/1 cap=4096 relations"},
    {Plan::kControl,
     "budget:frac=1;slo:p99<1s",
     "slo:p99<1s;budget:frac=1",
     "slo 99 1000 5000 3 -1 0.5 budget 1 2"},
    {Plan::kControl,
     "slo :p50<1.5,low=0;degrade:floor=1048576,factor=0.999",
     "slo:p50<1500ms,low=0;degrade:floor=1048576,factor=0.999",
     "slo 50 1500 5000 3 -1 0 budget 0.25 2 degrade 1048576 0.999"},
    {Plan::kControl,
     "slo: p95<40ms , every=1s",
     "slo:p95<40ms,every=1s",
     "slo 95 40 1000 3 -1 0.5 budget 0.25 2"},
    {Plan::kControl,
     "slo:p50<2s,every=1s",
     "slo:p50<2s,every=1s",
     "slo 50 2000 1000 3 -1 0.5 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<1ms,every=500ms,settle=2,cooldown=1s;scale:min=2,max=6",
     "slo:p95<1ms,every=500ms,settle=2,cooldown=1s;scale:min=2,max=6",
     "slo 95 1 500 2 1000 0.5 scale 2 6 1 0 8 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<1ms,every=500ms,settle=2,cooldown=1s;scale:min=2,max=6;budget"
     ":frac=0.5",
     "slo:p95<1ms,every=500ms,settle=2,cooldown=1s;scale:min=2,max=6;budget"
     ":frac=0.5",
     "slo 95 1 500 2 1000 0.5 scale 2 6 1 0 8 budget 0.5 2"},
    {Plan::kControl,
     "slo:p95<1ms,every=500ms,settle=2,cooldown=500ms;degrade:floor=2,facto"
     "r=0.25",
     "slo:p95<1ms,every=500ms,settle=2,cooldown=500ms;degrade:floor=2,facto"
     "r=0.25",
     "slo 95 1 500 2 500 0.5 budget 0.25 2 degrade 2 0.25"},
    {Plan::kControl,
     "slo:p95<1ms,every=500ms,settle=2,cooldown=500ms;scale:min=2,max=6",
     "slo:p95<1ms,every=500ms,settle=2,cooldown=500ms;scale:min=2,max=6",
     "slo 95 1 500 2 500 0.5 scale 2 6 1 0 8 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<1ms;scale:min=4096,max=4096,step=4096,rate=1e9,batch=1",
     "slo:p95<1ms;scale:min=4096,max=4096,step=4096,rate=1e+09,batch=1",
     "slo 95 1 5000 3 -1 0.5 scale 4096 4096 4096 1e+09 1 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<3600s,every=1s,settle=2;scale:min=8,max=12",
     "slo:p95<3600s,every=1s,settle=2;scale:min=8,max=12",
     "slo 95 3.6e+06 1000 2 -1 0.5 scale 8 12 1 0 8 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<3600s,every=500ms,settle=2,cooldown=500ms;scale:min=2,max=6",
     "slo:p95<3600s,every=500ms,settle=2,cooldown=500ms;scale:min=2,max=6",
     "slo 95 3.6e+06 500 2 500 0.5 scale 2 6 1 0 8 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<40ms",
     "slo:p95<40ms",
     "slo 95 40 5000 3 -1 0.5 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<40ms,\tevery=1s",
     "slo:p95<40ms,every=1s",
     "slo 95 40 1000 3 -1 0.5 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<40ms,cooldown=0",
     "slo:p95<40ms,cooldown=0s",
     "slo 95 40 5000 3 0 0.5 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<40ms,every=500ms,settle=2",
     "slo:p95<40ms,every=500ms,settle=2",
     "slo 95 40 500 2 -1 0.5 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<40ms,every=500ms,settle=2;scale:min=2,max=12",
     "slo:p95<40ms,every=500ms,settle=2;scale:min=2,max=12",
     "slo 95 40 500 2 -1 0.5 scale 2 12 1 0 8 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<40ms,every=500ms,settle=2;scale:min=2,max=3",
     "slo:p95<40ms,every=500ms,settle=2;scale:min=2,max=3",
     "slo 95 40 500 2 -1 0.5 scale 2 3 1 0 8 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<40ms,every=5s,settle=3;scale:min=32,max=48;budget:frac=0.25,c"
     "oncurrent=2;degrade:floor=64",
     "slo:p95<40ms;scale:min=32,max=48;budget:frac=0.25;degrade:floor=64",
     "slo 95 40 5000 3 -1 0.5 scale 32 48 1 0 8 budget 0.25 2 degrade 64 0."
     "5"},
    {Plan::kControl,
     "slo:p95<40ms;budget:",
     "slo:p95<40ms;budget:frac=0.25",
     "slo 95 40 5000 3 -1 0.5 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<40ms;scale:min=2,max=12",
     "slo:p95<40ms;scale:min=2,max=12",
     "slo 95 40 5000 3 -1 0.5 scale 2 12 1 0 8 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<40ms;scale:min=4,max=8",
     "slo:p95<40ms;scale:min=4,max=8",
     "slo 95 40 5000 3 -1 0.5 scale 4 8 1 0 8 budget 0.25 2"},
    {Plan::kControl,
     "slo:p95<500ms,every=1s,settle=2,cooldown=3s,low=0.9;scale:min=8,max=1"
     "2,step=2;budget:frac=0.4,concurrent=2;degrade:floor=8,factor=0.5",
     "slo:p95<500ms,every=1s,settle=2,cooldown=3s,low=0.9;scale:min=8,max=1"
     "2,step=2;budget:frac=0.4;degrade:floor=8",
     "slo 95 500 1000 2 3000 0.9 scale 8 12 2 0 8 budget 0.4 2 degrade 8 0."
     "5"},
    {Plan::kControl,
     "slo:p99<120ms,every=2s,settle=4,cooldown=10s,low=0.3;scale:min=4,max="
     "12,step=2,rate=0.5,batch=16;budget:frac=0.4,concurrent=3;degrade:floo"
     "r=8,factor=0.25",
     "slo:p99<120ms,every=2s,settle=4,cooldown=10s,low=0.3;scale:min=4,max="
     "12,step=2,rate=0.5,batch=16;budget:frac=0.4,concurrent=3;degrade:floo"
     "r=8,factor=0.25",
     "slo 99 120 2000 4 10000 0.3 scale 4 12 2 0.5 16 budget 0.4 3 degrade "
     "8 0.25"},
};

TEST(PlanGrammarCorpusTest, AcceptedSpecsKeepTheirFieldsAndCanonicalForm) {
  for (const Accepted& a : kAccepted) {
    const Parsed p = Parse(a.plan, a.spec);
    ASSERT_TRUE(p.status.ok()) << a.spec << ": " << p.status.ToString();
    EXPECT_EQ(p.canonical, a.canonical) << a.spec;
    EXPECT_EQ(p.fields, a.fields) << a.spec;
    // The canonical form is a fixed point of parse-then-print.
    const Parsed again = Parse(a.plan, p.canonical);
    ASSERT_TRUE(again.status.ok()) << p.canonical;
    EXPECT_EQ(again.canonical, p.canonical) << a.spec;
  }
}

TEST(PlanGrammarCorpusTest, ToStringIsAFixedPointPastSixSignificantDigits) {
  // Numbers and durations print in the shortest form that reads back
  // exactly, so a value with more than six significant digits survives
  // Parse(ToString(p)) instead of being rounded to "%g"'s six.
  const struct {
    Plan plan;
    const char* spec;
    const char* canonical;
    const char* fields;
  } cases[] = {
      {Plan::kFaults, "disk:node0@t=1234.5675s",
       "disk:node0@t=1.2345675e+06ms", "{0 0 1234567.5 inf 0.05 2}"},
      {Plan::kOpen, "rate:1234567.5", "rate:1.2345675e+06@t=0s",
       "rates 0/1234567.5 bursts zipf=0 tail=0/1 cap=4096 relations"},
      {Plan::kRecovery, "repair:node1@t=0.1234567s,rate=123.4567",
       "repair:node1@t=123.4567ms,rate=123.4567", "{1 123.4567 123.4567 8}"},
  };
  for (const auto& c : cases) {
    const Parsed p = Parse(c.plan, c.spec);
    ASSERT_TRUE(p.status.ok()) << c.spec << ": " << p.status.ToString();
    EXPECT_EQ(p.canonical, c.canonical) << c.spec;
    EXPECT_EQ(p.fields, c.fields) << c.spec;
    const Parsed again = Parse(c.plan, p.canonical);
    ASSERT_TRUE(again.status.ok()) << p.canonical;
    EXPECT_EQ(again.fields, p.fields) << c.spec;
    EXPECT_EQ(again.canonical, p.canonical) << c.spec;
  }
}

struct Rejected {
  Plan plan;
  const char* spec;
  const char* message;
};

const Rejected kRejected[] = {
    {Plan::kFaults, "disk",
     "faults: missing ':' in event 'disk'"},
    {Plan::kFaults, "melt:node3@t=5s",
     "faults: unknown kind 'melt' (expected disk, io, slow or crash)"},
    {Plan::kFaults, "disk:3@t=5s",
     "faults: disk target must be nodeN with N an integer in [0, 1048576], "
     "got '3'"},
    {Plan::kFaults, "disk:node0x1@t=0",
     "faults: disk target must be nodeN with N an integer in [0, 1048576], "
     "got 'node0x1'"},
    {Plan::kFaults, "disk:node 1@t=0",
     "faults: disk target must be nodeN with N an integer in [0, 1048576], "
     "got 'node 1'"},
    {Plan::kFaults, "disk:node3",
     "faults: event 'disk:node3' has no t="},
    {Plan::kFaults, "disk:node0@t",
     "faults: expected key=value, got 't'"},
    {Plan::kFaults, "disk:node0@t=1s,",
     "faults: expected key=value, got ''"},
    {Plan::kFaults, "disk:node0@t=0,down=5",
     "faults: unknown option 'down' for disk"},
    {Plan::kFaults, "disk:node0@t=1,t=2",
     "faults: duplicate key 't' in event 'disk:node0@t=1,t=2'"},
    {Plan::kFaults, "disk:node0@t=-5s",
     "faults: disk t must be a duration >= 0s, got '-5s'"},
    {Plan::kFaults, "disk:node0@t=nan",
     "faults: disk t must be a duration >= 0s, got 'nan'"},
    {Plan::kFaults, "disk:node0@t=1e306",
     "faults: disk t must be a duration >= 0s, got '1e306'"},
    {Plan::kFaults, "disk:node0@t =1s",
     "faults: unknown option 't ' for disk"},
    {Plan::kFaults, "io:node0@t=0,rate=2",
     "faults: io rate must be a number in [0, 1], got '2'"},
    {Plan::kFaults, "io:node0@t=0,rate=0x1",
     "faults: io rate must be a number in [0, 1], got '0x1'"},
    {Plan::kFaults, "io:node0@t=0,rate=0.5,for=inf",
     "faults: io for must be a duration >= 0s, got 'inf'"},
    {Plan::kFaults, "slow:node0@t=0,x=nan",
     "faults: slow x must be a number >= 1, got 'nan'"},
    {Plan::kFaults, "slow:node0@t=0,x=0.5",
     "faults: slow x must be a number >= 1, got '0.5'"},
    {Plan::kFaults, "crash:node0@t=1s,down=5q",
     "faults: crash down must be a duration >= 0s, got '5q'"},
    {Plan::kRecovery, "repair",
     "recovery: missing ':' in event 'repair'"},
    {Plan::kRecovery, "disk:node3@t=1s",
     "recovery: unknown kind 'disk' (expected repair)"},
    {Plan::kRecovery, "repair:node-1@t=1s",
     "recovery: repair target must be nodeN with N an integer in [0, 104857"
     "6], got 'node-1'"},
    {Plan::kRecovery, "repair:node3",
     "recovery: event 'repair:node3' has no t="},
    {Plan::kRecovery, "repair:node3@t=1s,rate=1,rate=2",
     "recovery: duplicate key 'rate' in event 'repair:node3@t=1s,rate=1,rat"
     "e=2'"},
    {Plan::kRecovery, "repair:node3@t=1s,bogus=1",
     "recovery: unknown option 'bogus' for repair"},
    {Plan::kRecovery, "repair:node3@t=1s,batch=0",
     "recovery: repair batch must be an integer in [1, 1048576], got '0'"},
    {Plan::kRecovery, "repair:node3@t=1s,batch=1.5",
     "recovery: repair batch must be an integer in [1, 1048576], got '1.5'"},
    {Plan::kRecovery, "repair:node3@t=1s,rate=-1",
     "recovery: repair rate must be a number in [0, 1e+09], got '-1'"},
    {Plan::kRecovery, "repair:node3@t=1s garbage",
     "recovery: repair t must be a duration >= 0s, got '1s garbage'"},
    {Plan::kRecovery, "repair:node3@t=1s,rate=0x10",
     "recovery: repair rate must be a number in [0, 1e+09], got '0x10'"},
    {Plan::kRecovery, "repair:node3@t=1s,",
     "recovery: expected key=value, got ''"},
    {Plan::kResize, "add",
     "resize: missing ':' in item 'add'"},
    {Plan::kResize, "repair:node3@t=1s",
     "resize: unknown kind 'repair' (expected add, remove, rebalance or sli"
     "ces)"},
    {Plan::kResize, "add:node5-3@t=1s",
     "resize: add target must be nodeA or nodeA-B with A <= B, each an inte"
     "ger in [0, 1048576], got 'node5-3'"},
    {Plan::kResize, "add:disk3@t=1s",
     "resize: add target must be nodeA or nodeA-B with A <= B, each an inte"
     "ger in [0, 1048576], got 'disk3'"},
    {Plan::kResize, "rebalance:node3@t=1s",
     "resize: rebalance target must be 'auto', got 'node3'"},
    {Plan::kResize, "add:node3",
     "resize: item 'add:node3' has no t="},
    {Plan::kResize, "add:node3@t=1s,threshold=2",
     "resize: unknown option 'threshold' for add"},
    {Plan::kResize, "add:node3@t=1s,rate=1,rate=2",
     "resize: duplicate key 'rate' in item 'add:node3@t=1s,rate=1,rate=2'"},
    {Plan::kResize, "add:node3@t=1s,batch=0",
     "resize: add batch must be an integer in [1, 1048576], got '0'"},
    {Plan::kResize, "add:node3@t=nan",
     "resize: add t must be a duration >= 0s, got 'nan'"},
    {Plan::kResize, "add:node3@t=1s,batch=0x10",
     "resize: add batch must be an integer in [1, 1048576], got '0x10'"},
    {Plan::kResize, "rebalance:auto@t=1s,every=0",
     "resize: rebalance every must be a duration > 0s, got '0'"},
    {Plan::kResize, "rebalance:auto@t=1s,threshold=0.5",
     "resize: rebalance threshold must be a number in [1, 1e+06], got '0.5'"},
    {Plan::kResize, "rebalance:auto@t=1s,settle=0",
     "resize: rebalance settle must be an integer in [1, 1048576], got '0'"},
    {Plan::kResize, "rebalance:auto@t=1s,max_moves=0",
     "resize: rebalance max_moves must be an integer in [1, 1048576], got '"
     "0'"},
    {Plan::kResize, "slices:1",
     "resize: slices must be an integer in [2, 4096], got '1'"},
    {Plan::kResize, "slices:8;slices:16",
     "resize: duplicate 'slices:' item"},
    {Plan::kResize, "slices:8@t=1s",
     "resize: unknown option 't' for slices"},
    {Plan::kOpen, "cap",
     "open: missing ':' in item 'cap'"},
    {Plan::kOpen, "frobnicate:3",
     "open: unknown kind 'frobnicate' (expected rate, burst, zipf, tail, re"
     "lation or cap)"},
    {Plan::kOpen, "rate:abc",
     "open: rate must be a number in [0, 1e+09], got 'abc'"},
    {Plan::kOpen, "rate:1e99",
     "open: rate must be a number in [0, 1e+09], got '1e99'"},
    {Plan::kOpen, "rate:inf",
     "open: rate must be a number in [0, 1e+09], got 'inf'"},
    {Plan::kOpen, "rate:100@elsewhen=3",
     "open: unknown option 'elsewhen' for rate"},
    {Plan::kOpen, "rate:100@t=-2s",
     "open: rate t must be a duration >= 0s, got '-2s'"},
    {Plan::kOpen, "rate:100@",
     "open: expected key=value, got ''"},
    {Plan::kOpen, "rate:100;rate:200",
     "open: rate schedule must be strictly increasing in t ('rate:200' at 0"
     "s does not follow 0s)"},
    {Plan::kOpen, "burst:10",
     "open: item 'burst:10' has no t="},
    {Plan::kOpen, "burst:0@t=1s",
     "open: burst must be an integer in [1, 1048576], got '0'"},
    {Plan::kOpen, "zipf:9",
     "open: zipf must be a number in [0, 8], got '9'"},
    {Plan::kOpen, "zipf:0.5;zipf:1.0",
     "open: duplicate 'zipf:' item"},
    {Plan::kOpen, "tail:p=0.5",
     "open: item 'tail:p=0.5' has no x="},
    {Plan::kOpen, "tail:p=1.5,x=4",
     "open: tail p must be a number in [0, 0.999999], got '1.5'"},
    {Plan::kOpen, "tail:p=0.1,x=0.5",
     "open: tail x must be a number in [1, 1e+06], got '0.5'"},
    {Plan::kOpen, "tail:p=0.1,x=2;tail:p=0.2,x=3",
     "open: duplicate 'tail:' item"},
    {Plan::kOpen, "relation:weight=2",
     "open: item 'relation:weight=2' has no card="},
    {Plan::kOpen, "relation:card=1",
     "open: relation card must be an integer in [2, 17179869184], got '1'"},
    {Plan::kOpen, "relation:card=5000,corr=2",
     "open: relation corr must be a number in [-1, 1], got '2'"},
    {Plan::kOpen, "relation:card=5000,weight",
     "open: expected key=value, got 'weight'"},
    {Plan::kOpen, "relation:card=100,card=200",
     "open: duplicate key 'card' in item 'relation:card=100,card=200'"},
    {Plan::kOpen, "relation:card=5000,weight=0x1",
     "open: relation weight must be a number in [1e-09, 1e+09], got '0x1'"},
    {Plan::kOpen, "cap:0",
     "open: cap must be an integer in [1, 4194304], got '0'"},
    {Plan::kOpen, "cap:10;cap:20",
     "open: duplicate 'cap:' item"},
    {Plan::kControl, "slo p95<40ms",
     "control: missing ':' in item 'slo p95<40ms'"},
    {Plan::kControl, "elastic:yes",
     "control: unknown kind 'elastic' (expected slo, scale, budget or degra"
     "de)"},
    {Plan::kControl, "slo:p90<40ms",
     "control: slo objective must be pQQ<BOUND with QQ one of 50, 95, 99 an"
     "d BOUND a duration > 0s, got 'p90<40ms'"},
    {Plan::kControl, "slo:p95<0ms",
     "control: slo objective must be pQQ<BOUND with QQ one of 50, 95, 99 an"
     "d BOUND a duration > 0s, got 'p95<0ms'"},
    {Plan::kControl, "slo:nope",
     "control: slo objective must be pQQ<BOUND with QQ one of 50, 95, 99 an"
     "d BOUND a duration > 0s, got 'nope'"},
    {Plan::kControl, "slo:",
     "control: slo objective must be pQQ<BOUND with QQ one of 50, 95, 99 an"
     "d BOUND a duration > 0s, got ''"},
    {Plan::kControl, "slo:p95<40ms junk",
     "control: slo objective must be pQQ<BOUND with QQ one of 50, 95, 99 an"
     "d BOUND a duration > 0s, got 'p95<40ms junk'"},
    {Plan::kControl, "slo:p95<40ms,bogus=1",
     "control: unknown option 'bogus' for slo"},
    {Plan::kControl, "slo:p95<40ms,every=1s,every=2s",
     "control: duplicate key 'every' in item 'slo:p95<40ms,every=1s,every=2"
     "s'"},
    {Plan::kControl, "slo:p95<40ms,every=0",
     "control: slo every must be a duration > 0s, got '0'"},
    {Plan::kControl, "slo:p95<40ms,low=1",
     "control: slo low must be a number in [0, 1), got '1'"},
    {Plan::kControl, "slo:p95<40ms,every=nan",
     "control: slo every must be a duration > 0s, got 'nan'"},
    {Plan::kControl, "slo:p95<40ms,settle=2 every=1s",
     "control: slo settle must be an integer in [1, 1048576], got '2 every="
     "1s'"},
    {Plan::kControl, "slo:p95<40ms;slo:p99<80ms",
     "control: duplicate 'slo:' item"},
    {Plan::kControl, "scale:min=2,max=4",
     "control: a control plan needs exactly one slo: item"},
    {Plan::kControl, "slo:p95<40ms;scale:min=4",
     "control: item 'scale:min=4' has no max="},
    {Plan::kControl, "slo:p95<40ms;scale:min=8,max=4",
     "control: scale max must be >= min"},
    {Plan::kControl, "slo:p95<40ms;scale:min=1,max=4",
     "control: scale min must be an integer in [2, 4096], got '1'"},
    {Plan::kControl, "slo:p95<40ms;scale:min=2 max=4",
     "control: scale min must be an integer in [2, 4096], got '2 max=4'"},
    {Plan::kControl, "slo:p95<40ms;budget:frac=0",
     "control: budget frac must be a number in (0, 1], got '0'"},
    {Plan::kControl, "slo:p95<40ms;budget:frac=0.5,,",
     "control: expected key=value, got ''"},
    {Plan::kControl, "slo:p95<40ms;degrade:floor=4,factor=1",
     "control: degrade factor must be a number in (0, 1), got '1'"},
    {Plan::kControl, "slo:p95<40ms;degrade:factor=0.5",
     "control: item 'degrade:factor=0.5' has no floor="},
};

TEST(PlanGrammarCorpusTest, RejectedSpecsNameWhatIsWrong) {
  for (const Rejected& r : kRejected) {
    const Parsed p = Parse(r.plan, r.spec);
    EXPECT_TRUE(p.status.IsInvalidArgument())
        << r.spec << ": " << p.status.ToString();
    EXPECT_EQ(p.status.message(), r.message) << r.spec;
  }
}

// A value of `v`'s atom inside its range.
std::string ValidText(const Value& v) {
  double x = v.lo;
  if (v.lo_open) x = v.hi == DBL_MAX ? v.lo + 1 : (v.lo + v.hi) / 2;
  if (v.atom == Atom::kInteger) return std::to_string(static_cast<int64_t>(x));
  return G(x) + (v.atom == Atom::kDuration ? "ms" : "");
}

struct SchemaCase {
  const Grammar* grammar;
  std::function<Status(std::string_view)> parse;
  // An item every spec of this plan must carry, and its kind.
  const char* required_item;
  int required_kind;
};

template <typename P>
SchemaCase Case(const char* required_item = "", int required_kind = -1) {
  return {&P::grammar(),
          [](std::string_view spec) { return P::Parse(spec).status(); },
          required_item, required_kind};
}

// One `kind` item: `head` (or a valid head), the required keys with valid
// values, and key `target` (if >= 0) set to `value`.
std::string ItemText(const Kind& kind, const std::string* head, int target,
                     std::string_view value) {
  std::string s = std::string(kind.name) + ":";
  if (head != nullptr) {
    s += *head;
  } else if (kind.head.atom == HeadAtom::kValue) {
    s += ValidText(kind.head.value);
  } else if (kind.head.atom == HeadAtom::kWord) {
    s += kind.head.word;
  } else if (kind.head.atom == HeadAtom::kObjective) {
    s += "p95<1s";
  } else if (kind.head.atom != HeadAtom::kNone) {
    s += "node0";
  }
  char sep = kind.head.atom == HeadAtom::kNone ? '\0' : kind.head_end;
  for (size_t k = 0; k < kind.keys.size(); ++k) {
    const Key& key = kind.keys[k];
    const bool is_target = static_cast<int>(k) == target;
    if (!is_target && key.presence != Presence::kRequired) continue;
    if (sep != '\0') s += sep;
    sep = ',';
    s += std::string(key.name) + "=" +
         (is_target ? std::string(value) : ValidText(key.value));
  }
  return s;
}

TEST(PlanGrammarSchemaTest, EveryNumericValueRejectsNonDecimalSpellings) {
  const SchemaCase cases[] = {
      Case<sim::FaultPlan>(),
      Case<recover::RecoveryPlan>(),
      Case<resize::ResizePlan>(),
      Case<workload::OpenPlan>(),
      Case<control::ControlPlan>("slo:p95<1s", 0),
  };
  const char* bad_values[] = {"nan", "inf", "-inf", "0x10", ""};
  int walked = 0;
  for (const SchemaCase& c : cases) {
    for (size_t k = 0; k < c.grammar->kinds.size(); ++k) {
      const Kind& kind = c.grammar->kinds[k];
      const std::string prefix =
          static_cast<int>(k) == c.required_kind || !*c.required_item
              ? std::string()
              : std::string(c.required_item) + ";";
      const auto check = [&](const std::string* head, int target,
                             const std::string& good) {
        const std::string ok = prefix + ItemText(kind, head, target, good);
        ASSERT_TRUE(c.parse(ok).ok()) << ok << ": " << c.parse(ok).ToString();
        ++walked;
        // A bad head value keeps the rest of its head's spelling.
        const std::string head_prefix =
            target >= 0 || kind.head.atom == HeadAtom::kValue ? ""
            : kind.head.atom == HeadAtom::kNode              ? "node"
                                                             : "p95<";
        std::vector<std::string> bads;
        for (const char* bad : bad_values) bads.push_back(head_prefix + bad);
        if (head_prefix == "node") {
          bads.insert(bads.end(), {"node0x1", "node 1", "node1.0"});
        }
        for (const std::string& bad : bads) {
          const std::string b =
              target < 0 ? prefix + ItemText(kind, &bad, -1, "")
                         : prefix + ItemText(kind, nullptr, target, bad);
          EXPECT_TRUE(c.parse(b).IsInvalidArgument()) << "accepted: " << b;
        }
      };
      if (kind.head.atom == HeadAtom::kValue) {
        const std::string good = ValidText(kind.head.value);
        check(&good, -1, "");
      } else if (kind.head.atom == HeadAtom::kNode) {
        const std::string good = "node0";
        check(&good, -1, "");
      } else if (kind.head.atom == HeadAtom::kObjective) {
        const std::string good = "p95<1s";
        check(&good, -1, "");
      }
      for (size_t i = 0; i < kind.keys.size(); ++i) {
        check(nullptr, static_cast<int>(i),
              ValidText(kind.keys[i].value));
      }
    }
  }
  // Every head and key above, so a grammar that lost its tables fails.
  EXPECT_GE(walked, 40);
}

}  // namespace
}  // namespace declust::spec
