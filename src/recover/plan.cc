#include "src/recover/plan.h"

#include <algorithm>
#include <limits>

namespace declust::recover {

const spec::Grammar& RecoveryPlan::grammar() {
  using spec::Into;
  static const spec::Grammar kGrammar{
      "recovery",
      "event",
      {{.name = "repair",
        .head = spec::NodeHead(Into<&RepairEvent::node>),
        .keys = {{"t", spec::Duration(), Into<&RepairEvent::at_ms>,
                  spec::Presence::kRequired},
                 spec::RateKey(Into<&RepairEvent::rate_mb_per_sec>),
                 spec::BatchKey(Into<&RepairEvent::batch_pages>)}}}};
  return kGrammar;
}

Result<RecoveryPlan> RecoveryPlan::Parse(std::string_view spec) {
  const spec::Grammar& g = grammar();
  DECLUST_ASSIGN_OR_RETURN(const std::vector<spec::Item> items, g.Split(spec));
  RecoveryPlan plan;
  for (const spec::Item& item : items) {
    DECLUST_RETURN_NOT_OK(g.Fill(item, &plan.events_.emplace_back()));
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const RepairEvent& a, const RepairEvent& b) {
                     if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
                     return a.node < b.node;
                   });
  return plan;
}

int RecoveryPlan::max_node() const {
  int max = -1;
  for (const RepairEvent& ev : events_) max = std::max(max, ev.node);
  return max;
}

Status RecoveryPlan::ValidateAgainst(const sim::FaultPlan& faults) const {
  for (size_t i = 0; i < events_.size(); ++i) {
    const RepairEvent& ev = events_[i];
    for (size_t j = 0; j < i; ++j) {
      if (events_[j].node == ev.node) {
        return Status::InvalidArgument(
            "recovery: node " + std::to_string(ev.node) +
            " is repaired more than once");
      }
    }
    double fail_at = std::numeric_limits<double>::infinity();
    for (const sim::FaultEvent& f : faults.events()) {
      if (f.kind == sim::FaultKind::kDiskFail && f.node == ev.node) {
        fail_at = std::min(fail_at, f.at_ms);
      }
    }
    if (!(fail_at <= ev.at_ms)) {
      return Status::InvalidArgument(
          "recovery: repair of node " + std::to_string(ev.node) + " at " +
          spec::FormatMs(ev.at_ms) +
          " has no preceding disk failure in the fault plan");
    }
  }
  return Status::OK();
}

std::string RecoveryPlan::ToString() const {
  std::string out;
  for (const RepairEvent& ev : events_) grammar().Print(0, ev, &out);
  return out;
}

}  // namespace declust::recover
