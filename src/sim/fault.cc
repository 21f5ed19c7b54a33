#include "src/sim/fault.h"

#include <algorithm>
#include <string_view>

namespace declust::sim {

const spec::Grammar& FaultPlan::grammar() {
  using spec::Into;
  using spec::Presence;
  constexpr spec::Head kNode = spec::NodeHead(Into<&FaultEvent::node>);
  constexpr spec::Key kAt{"t", spec::Duration(), Into<&FaultEvent::at_ms>,
                          Presence::kRequired};
  constexpr spec::Key kFor{"for", spec::Duration(),
                           Into<&FaultEvent::duration_ms>};
  // Kinds in FaultKind order.
  static const spec::Grammar kGrammar{
      "faults",
      "event",
      {{.name = "disk", .head = kNode, .keys = {kAt}},
       {.name = "io",
        .head = kNode,
        .keys = {kAt,
                 {"rate", spec::Number(0, 1), Into<&FaultEvent::rate>,
                  Presence::kShown},
                 kFor}},
       {.name = "slow",
        .head = kNode,
        .keys = {kAt,
                 {"x", spec::Number(1), Into<&FaultEvent::factor>,
                  Presence::kShown},
                 kFor}},
       {.name = "crash",
        .head = kNode,
        .keys = {kAt,
                 {"down", spec::Duration(), Into<&FaultEvent::duration_ms>}}}}};
  return kGrammar;
}

Result<FaultPlan> FaultPlan::Parse(std::string_view spec) {
  const spec::Grammar& g = grammar();
  DECLUST_ASSIGN_OR_RETURN(const std::vector<spec::Item> items, g.Split(spec));
  FaultPlan plan;
  for (const spec::Item& item : items) {
    FaultEvent& ev = plan.events_.emplace_back();
    ev.kind = static_cast<FaultKind>(item.kind);
    DECLUST_RETURN_NOT_OK(g.Fill(item, &ev));
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
                     return a.node < b.node;
                   });
  return plan;
}

int FaultPlan::max_node() const {
  int max = -1;
  for (const FaultEvent& ev : events_) max = std::max(max, ev.node);
  return max;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const FaultEvent& ev : events_) {
    grammar().Print(static_cast<int>(ev.kind), ev, &out);
  }
  return out;
}

FaultInjector::FaultInjector(const FaultPlan* plan, uint64_t seed,
                             int num_nodes) {
  nodes_.resize(static_cast<size_t>(std::max(num_nodes, 0)));
  const RandomStream root(seed ^ 0xFA17FA17FA17FA17ULL);
  for (size_t n = 0; n < nodes_.size(); ++n) {
    nodes_[n].rng = root.Fork(static_cast<uint64_t>(n));
  }
  if (plan == nullptr) return;
  for (const FaultEvent& ev : plan->events()) {
    if (ev.node < 0 || ev.node >= static_cast<int>(nodes_.size())) continue;
    NodeFaults& nf = nodes_[static_cast<size_t>(ev.node)];
    switch (ev.kind) {
      case FaultKind::kDiskFail:
        nf.disk_fail_at_ms = std::min(nf.disk_fail_at_ms, ev.at_ms);
        break;
      case FaultKind::kIoError:
        nf.io_errors.push_back(ev);
        break;
      case FaultKind::kSlowNode:
        nf.slows.push_back(ev);
        break;
      case FaultKind::kCrash:
        nf.crashes.push_back(ev);
        break;
    }
  }
}

bool FaultInjector::NodeUp(int node, double now_ms) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return true;
  for (const FaultEvent& ev :
       nodes_[static_cast<size_t>(node)].crashes) {
    if (now_ms >= ev.at_ms && now_ms - ev.at_ms < ev.duration_ms) {
      return false;
    }
  }
  return true;
}

bool FaultInjector::DiskAvailable(int node, double now_ms) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return true;
  if (now_ms >= nodes_[static_cast<size_t>(node)].disk_fail_at_ms) {
    return false;
  }
  return NodeUp(node, now_ms);
}

double FaultInjector::DiskFailAtMs(int node) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) {
    return std::numeric_limits<double>::infinity();
  }
  return nodes_[static_cast<size_t>(node)].disk_fail_at_ms;
}

void FaultInjector::MarkRepaired(int node, double now_ms) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return;
  NodeFaults& nf = nodes_[static_cast<size_t>(node)];
  nf.disk_fail_at_ms = std::numeric_limits<double>::infinity();
  for (FaultEvent& ev : nf.crashes) {
    // Truncate the window the repair interrupts; windows that have not
    // opened yet are untouched (the node can crash again later).
    if (now_ms >= ev.at_ms && now_ms - ev.at_ms < ev.duration_ms) {
      ev.duration_ms = now_ms - ev.at_ms;
    }
  }
  repairs_.push_back(Repair{now_ms, node});
}

double FaultInjector::SlowFactor(int node, double now_ms) const {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return 1.0;
  double factor = 1.0;
  for (const FaultEvent& ev : nodes_[static_cast<size_t>(node)].slows) {
    if (now_ms >= ev.at_ms && now_ms - ev.at_ms < ev.duration_ms) {
      factor *= ev.factor;
    }
  }
  return factor;
}

bool FaultInjector::MaybeInjectIoError(int node, double now_ms) {
  if (node < 0 || node >= static_cast<int>(nodes_.size())) return false;
  NodeFaults& nf = nodes_[static_cast<size_t>(node)];
  double rate = 0.0;
  for (const FaultEvent& ev : nf.io_errors) {
    if (now_ms >= ev.at_ms && now_ms - ev.at_ms < ev.duration_ms) {
      rate = std::max(rate, ev.rate);
    }
  }
  // Only consume randomness while a window is active: the per-node decision
  // sequence then depends solely on how many of this node's I/Os complete
  // inside windows, which is deterministic for a given seed.
  if (rate <= 0.0) return false;
  if (!nf.rng.Bernoulli(rate)) return false;
  trace_.push_back(Injection{now_ms, node});
  return true;
}

}  // namespace declust::sim
