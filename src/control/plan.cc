#include "src/control/plan.h"

#include <algorithm>
#include <vector>

namespace declust::control {

namespace {

// Kinds in grammar order.
enum ControlKind { kSlo, kScale, kBudget, kDegrade };

}  // namespace

const spec::Grammar& ControlPlan::grammar() {
  using spec::Into;
  using spec::Presence;
  static const spec::Grammar kGrammar{
      "control",
      "item",
      {{.name = "slo",
        .head = spec::ObjectiveHead(Into<&SloTarget::quantile>,
                                    Into<&SloTarget::bound_ms>),
        .keys = {{"every", spec::ExcludeLo(spec::Duration()),
                  Into<&SloTarget::every_ms>},
                 {"settle", spec::Integer(1, 1 << 20),
                  Into<&SloTarget::settle>},
                 {"cooldown", spec::Duration(), Into<&SloTarget::cooldown_ms>},
                 {"low", spec::ExcludeHi(spec::Number(0, 1)),
                  Into<&SloTarget::low>}},
        .head_end = ',',
        .once = true},
       {.name = "scale",
        .keys = {{"min", spec::Integer(2, 1 << 12),
                  Into<&ScaleBounds::min_nodes>, Presence::kRequired},
                 {"max", spec::Integer(2, 1 << 12),
                  Into<&ScaleBounds::max_nodes>, Presence::kRequired},
                 {"step", spec::Integer(1, 1 << 12), Into<&ScaleBounds::step>},
                 spec::RateKey(Into<&ScaleBounds::rate_mb_per_sec>),
                 spec::BatchKey(Into<&ScaleBounds::batch_pages>)},
        .once = true},
       {.name = "budget",
        .keys = {{"frac", spec::ExcludeLo(spec::Number(0, 1)),
                  Into<&ContentionBudget::frac>, Presence::kShown},
                 {"concurrent", spec::Integer(1, 1 << 10),
                  Into<&ContentionBudget::concurrent>}},
        .once = true},
       {.name = "degrade",
        .keys = {{"floor", spec::Integer(1, 1 << 20),
                  Into<&DegradePolicy::floor>, Presence::kRequired},
                 {"factor",
                  spec::ExcludeLo(spec::ExcludeHi(spec::Number(0, 1))),
                  Into<&DegradePolicy::factor>}},
        .once = true}}};
  return kGrammar;
}

Result<ControlPlan> ControlPlan::Parse(std::string_view spec) {
  const spec::Grammar& g = grammar();
  DECLUST_ASSIGN_OR_RETURN(const std::vector<spec::Item> items, g.Split(spec));
  ControlPlan plan;
  for (const spec::Item& item : items) {
    switch (item.kind) {
      case kSlo:
        plan.have_slo_ = true;
        DECLUST_RETURN_NOT_OK(g.Fill(item, &plan.slo_));
        break;
      case kScale:
        plan.have_scale_ = true;
        DECLUST_RETURN_NOT_OK(g.Fill(item, &plan.scale_));
        if (plan.scale_.max_nodes < plan.scale_.min_nodes) {
          return Status::InvalidArgument("control: scale max must be >= min");
        }
        break;
      case kBudget:
        plan.have_budget_ = true;
        DECLUST_RETURN_NOT_OK(g.Fill(item, &plan.budget_));
        break;
      default:
        plan.have_degrade_ = true;
        DECLUST_RETURN_NOT_OK(g.Fill(item, &plan.degrade_));
        break;
    }
  }
  if (!plan.have_slo_ && !items.empty()) {
    return Status::InvalidArgument(
        "control: a control plan needs exactly one slo: item");
  }
  return plan;
}

Status ControlPlan::Validate(int initial_nodes, double horizon_ms) const {
  if (empty()) return Status::OK();
  if (initial_nodes < 2) {
    return Status::InvalidArgument(
        "control: needs at least 2 initial nodes, got " +
        std::to_string(initial_nodes));
  }
  if (have_scale_) {
    if (initial_nodes < scale_.min_nodes || initial_nodes > scale_.max_nodes) {
      return Status::InvalidArgument(
          "control: scale bounds [" + std::to_string(scale_.min_nodes) +
          ", " + std::to_string(scale_.max_nodes) +
          "] do not bracket the initial " + std::to_string(initial_nodes) +
          " nodes");
    }
  }
  // Mirror of the resize-plan rule: a controller whose `settle * every`
  // observation window ends past the run horizon can never act — reject it
  // instead of silently running open-loop.
  if (horizon_ms > 0.0 &&
      static_cast<double>(slo_.settle) * slo_.every_ms > horizon_ms) {
    return Status::InvalidArgument(
        "control: slo can never act: settle=" + std::to_string(slo_.settle) +
        " x every=" + spec::FormatMs(slo_.every_ms) + " exceeds the " +
        spec::FormatMs(horizon_ms) + " run horizon");
  }
  return Status::OK();
}

int ControlPlan::NumPhysicalNodes(int initial_nodes) const {
  if (!have_scale_) return initial_nodes;
  return std::max(initial_nodes, scale_.max_nodes);
}

int ControlPlan::NumSlices(int initial_nodes) const {
  return NumPhysicalNodes(initial_nodes);
}

std::string ControlPlan::ToString() const {
  if (empty()) return "";
  const spec::Grammar& g = grammar();
  std::string out;
  g.Print(kSlo, slo_, &out);
  if (have_scale_) g.Print(kScale, scale_, &out);
  if (have_budget_) g.Print(kBudget, budget_, &out);
  if (have_degrade_) g.Print(kDegrade, degrade_, &out);
  return out;
}

}  // namespace declust::control
