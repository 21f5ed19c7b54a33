// Resize plans: scheduled elastic-membership changes for the online
// migration subsystem.
//
// A ResizePlan is the membership-side counterpart of sim::FaultPlan and
// recover::RecoveryPlan, in the plan grammar of DESIGN.md ("Plan grammar").
//
//   add:nodeA[-B]@t=T[,rate=R][,batch=P]
//     Nodes A..B join the cluster at T; the migration coordinator moves
//     slices onto them (balanced, deterministic) and re-chains backups.
//   remove:nodeA[-B]@t=T[,rate=R][,batch=P]
//     Nodes A..B leave: their slices migrate to the remaining members,
//     backups re-chain, then the nodes drain (active reads finish) before
//     they are retired.
//   rebalance:auto@t=T[,every=D][,threshold=X][,settle=K][,max_moves=M]
//                    [,rate=R][,batch=P]
//     From T on, every D the coordinator compares observed per-slice access
//     counts across members; when the hottest member exceeds X times the
//     mean for K consecutive checks it migrates up to M hot slices to cold
//     members (hysteresis: the streak resets after every move burst).
//   slices:N
//     Overrides the logical slice count (the MAGIC grid re-split
//     granularity). Defaults to the largest physical node index the plan
//     ever reaches + 1, and may only be raised.
//
//   T, D  durations (D > 0, default 2s)
//   R     migration throttle in MB/s of copied data (0/omitted = none)
//   P     pages copied per migration batch (>= 1, default 8)
//   X     load-imbalance trigger ratio (>= 1, default 1.5)
//   K     consecutive above-threshold checks required (>= 1, default 2)
//   M     max slice moves per rebalance burst (>= 1, default 4)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/spec.h"
#include "src/common/status.h"

namespace declust::resize {

/// One scheduled membership change (or the rebalance arming point). Times
/// are simulation milliseconds.
struct ResizeEvent {
  enum class Kind { kAdd, kRemove, kRebalance };
  Kind kind = Kind::kAdd;
  /// Inclusive node range for add/remove; unused for rebalance.
  int lo = 0;
  int hi = 0;
  double at_ms = 0.0;
  /// Migration throttle in MB (1e6 bytes) per second; 0 means unthrottled.
  double rate_mb_per_sec = 0.0;
  /// Pages copied per migration batch.
  int batch_pages = spec::kDefaultBatchPages;
  // Rebalance-only knobs.
  double every_ms = 2000.0;
  double threshold = 1.5;
  int settle = 2;
  int max_moves = 4;
};

/// \brief A parsed, validated schedule of membership changes.
class ResizePlan {
 public:
  ResizePlan() = default;

  /// Parses a `--resize` spec; InvalidArgument on malformed input.
  static Result<ResizePlan> Parse(std::string_view spec);
  /// The kinds and keys Parse accepts and ToString prints.
  static const spec::Grammar& grammar();

  bool empty() const { return events_.empty() && slices_override_ == 0; }
  const std::vector<ResizeEvent>& events() const { return events_; }
  /// 0 when the plan has no `slices:` item.
  int slices_override() const { return slices_override_; }

  /// Checks the membership timeline starting from nodes 0..initial-1:
  /// adds must target non-members, removes must target members, and the
  /// membership may never drop below two nodes. When `horizon_ms` > 0 (the
  /// run's warmup + measurement span), every rebalance item's hysteresis
  /// must be able to trigger inside it: a plan whose `settle * every`
  /// window ends past the horizon can never fire and is rejected instead
  /// of silently doing nothing.
  Status Validate(int initial_nodes, double horizon_ms = 0.0) const;

  /// Physical machine size: one node slot for every index that is ever a
  /// member (max over the timeline of max member index + 1).
  int NumPhysicalNodes(int initial_nodes) const;

  /// Logical slice count: the physical node count, unless `slices:` raises
  /// it further (a finer MAGIC grid split).
  int NumSlices(int initial_nodes) const;

  /// Number of timed membership events (add/remove). Each contributes a
  /// [start, done] boundary pair, so a run has 2K+1 reporting phases.
  int NumMembershipEvents() const;

  /// The plan in canonical spec form.
  std::string ToString() const;

 private:
  std::vector<ResizeEvent> events_;
  int slices_override_ = 0;
};

}  // namespace declust::resize
