#include "src/resize/plan.h"

#include <algorithm>

namespace declust::resize {

namespace {

// Kinds in ResizeEvent::Kind order; slices: fills the plan itself.
constexpr int kSlices = 3;

}  // namespace

const spec::Grammar& ResizePlan::grammar() {
  using spec::Into;
  using spec::Presence;
  constexpr spec::Head kNodes = spec::NodeRangeHead(Into<&ResizeEvent::lo>,
                                                    Into<&ResizeEvent::hi>);
  constexpr spec::Key kAt{"t", spec::Duration(), Into<&ResizeEvent::at_ms>,
                          Presence::kRequired};
  constexpr spec::Key kRate =
      spec::RateKey(Into<&ResizeEvent::rate_mb_per_sec>);
  constexpr spec::Key kBatch = spec::BatchKey(Into<&ResizeEvent::batch_pages>);
  static const spec::Grammar kGrammar{
      "resize",
      "item",
      {{.name = "add", .head = kNodes, .keys = {kAt, kRate, kBatch}},
       {.name = "remove", .head = kNodes, .keys = {kAt, kRate, kBatch}},
       {.name = "rebalance",
        .head = spec::WordHead("auto"),
        .keys = {kAt,
                 {"every", spec::ExcludeLo(spec::Duration()),
                  Into<&ResizeEvent::every_ms>},
                 {"threshold", spec::Number(1, 1e6),
                  Into<&ResizeEvent::threshold>},
                 {"settle", spec::Integer(1, 1 << 20),
                  Into<&ResizeEvent::settle>},
                 {"max_moves", spec::Integer(1, 1 << 20),
                  Into<&ResizeEvent::max_moves>},
                 kRate,
                 kBatch}},
       {.name = "slices",
        .head = spec::ValueHead(spec::Integer(2, 1 << 12),
                                Into<&ResizePlan::slices_override_>),
        .once = true}}};
  return kGrammar;
}

Result<ResizePlan> ResizePlan::Parse(std::string_view spec) {
  const spec::Grammar& g = grammar();
  DECLUST_ASSIGN_OR_RETURN(const std::vector<spec::Item> items, g.Split(spec));
  ResizePlan plan;
  for (const spec::Item& item : items) {
    if (item.kind == kSlices) {
      DECLUST_RETURN_NOT_OK(g.Fill(item, &plan));
      continue;
    }
    ResizeEvent& ev = plan.events_.emplace_back();
    ev.kind = static_cast<ResizeEvent::Kind>(item.kind);
    DECLUST_RETURN_NOT_OK(g.Fill(item, &ev));
  }
  std::stable_sort(plan.events_.begin(), plan.events_.end(),
                   [](const ResizeEvent& a, const ResizeEvent& b) {
                     if (a.at_ms != b.at_ms) return a.at_ms < b.at_ms;
                     return a.lo < b.lo;
                   });
  return plan;
}

Status ResizePlan::Validate(int initial_nodes, double horizon_ms) const {
  if (initial_nodes < 2) {
    return Status::InvalidArgument(
        "resize: needs at least 2 initial nodes, got " +
        std::to_string(initial_nodes));
  }
  int rebalances = 0;
  std::vector<char> member(static_cast<size_t>(NumPhysicalNodes(initial_nodes)),
                           0);
  for (int n = 0; n < initial_nodes && n < static_cast<int>(member.size());
       ++n) {
    member[static_cast<size_t>(n)] = 1;
  }
  int count = std::min(initial_nodes, static_cast<int>(member.size()));
  for (const ResizeEvent& ev : events_) {
    if (ev.kind == ResizeEvent::Kind::kRebalance) {
      if (++rebalances > 1) {
        return Status::InvalidArgument(
            "resize: at most one rebalance:auto item");
      }
      // Hysteresis vs run horizon: the first possible trigger is after
      // `settle` consecutive `every` checks starting at t; a window that
      // ends past the horizon means the rebalance silently never fires.
      if (horizon_ms > 0.0 &&
          ev.at_ms + static_cast<double>(ev.settle) * ev.every_ms >
              horizon_ms) {
        return Status::InvalidArgument(
            "resize: rebalance:auto at " + spec::FormatMs(ev.at_ms) +
            " can never trigger: settle=" + std::to_string(ev.settle) +
            " x every=" + spec::FormatMs(ev.every_ms) + " exceeds the " +
            spec::FormatMs(horizon_ms) + " run horizon");
      }
      continue;
    }
    for (int n = ev.lo; n <= ev.hi; ++n) {
      // NumPhysicalNodes() only grows for adds, so a remove can target an
      // index the machine never reaches.
      if (n >= static_cast<int>(member.size())) {
        return Status::InvalidArgument(
            "resize: remove of node " + std::to_string(n) + " at " +
            spec::FormatMs(ev.at_ms) + " but it is not a member");
      }
      char& m = member[static_cast<size_t>(n)];
      if (ev.kind == ResizeEvent::Kind::kAdd) {
        if (m) {
          return Status::InvalidArgument(
              "resize: add of node " + std::to_string(n) + " at " +
              spec::FormatMs(ev.at_ms) + " but it is already a member");
        }
        m = 1;
        ++count;
      } else {
        if (!m) {
          return Status::InvalidArgument(
              "resize: remove of node " + std::to_string(n) + " at " +
              spec::FormatMs(ev.at_ms) + " but it is not a member");
        }
        m = 0;
        if (--count < 2) {
          return Status::InvalidArgument(
              "resize: membership would drop below 2 nodes at " +
              spec::FormatMs(ev.at_ms));
        }
      }
    }
  }
  if (slices_override_ != 0 &&
      slices_override_ < NumPhysicalNodes(initial_nodes)) {
    return Status::InvalidArgument(
        "resize: slices:" + std::to_string(slices_override_) +
        " is below the " + std::to_string(NumPhysicalNodes(initial_nodes)) +
        " physical nodes the plan reaches");
  }
  return Status::OK();
}

int ResizePlan::NumPhysicalNodes(int initial_nodes) const {
  int max_index = initial_nodes - 1;
  for (const ResizeEvent& ev : events_) {
    if (ev.kind == ResizeEvent::Kind::kAdd) {
      max_index = std::max(max_index, ev.hi);
    }
  }
  return max_index + 1;
}

int ResizePlan::NumSlices(int initial_nodes) const {
  return std::max(NumPhysicalNodes(initial_nodes), slices_override_);
}

int ResizePlan::NumMembershipEvents() const {
  int k = 0;
  for (const ResizeEvent& ev : events_) {
    if (ev.kind != ResizeEvent::Kind::kRebalance) ++k;
  }
  return k;
}

std::string ResizePlan::ToString() const {
  std::string out;
  if (slices_override_ != 0) grammar().Print(kSlices, *this, &out);
  for (const ResizeEvent& ev : events_) {
    grammar().Print(static_cast<int>(ev.kind), ev, &out);
  }
  return out;
}

}  // namespace declust::resize
