// Recovery plans: scheduled node repairs for the online-recovery subsystem.
//
// A RecoveryPlan is the repair-side counterpart of sim::FaultPlan, in the
// plan grammar of DESIGN.md ("Plan grammar"):
//   repair:nodeN@t=T[,rate=R][,batch=B]
//     T     repair time
//     R     rebuild throttle in MB/s of rebuild traffic (0 or omitted =
//           unthrottled: the rebuild runs as fast as the hardware allows)
//     B     pages copied per rebuild batch (>= 1, default 8); batches are
//           the granularity at which the throttle paces and at which
//           foreground queries can interleave with rebuild I/O
//
// On a repair the recovery coordinator (src/recover/recovery.h) makes the
// disk physically serviceable again (sim::FaultInjector::MarkRepaired),
// rebuilds the node's lost fragments from the chained backup, and only then
// flips query addressing back to the primary.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/spec.h"
#include "src/common/status.h"
#include "src/sim/fault.h"

namespace declust::recover {

/// One scheduled repair. Times are simulation milliseconds.
struct RepairEvent {
  int node = 0;
  double at_ms = 0.0;
  /// Rebuild throttle in MB (1e6 bytes) per second of copied data;
  /// 0 means unthrottled.
  double rate_mb_per_sec = 0.0;
  /// Pages copied per rebuild batch.
  int batch_pages = spec::kDefaultBatchPages;
};

/// \brief A parsed, validated schedule of repair events.
class RecoveryPlan {
 public:
  RecoveryPlan() = default;

  /// Parses a `--recovery` spec; InvalidArgument on malformed input.
  static Result<RecoveryPlan> Parse(std::string_view spec);
  /// The kinds and keys Parse accepts and ToString prints.
  static const spec::Grammar& grammar();

  bool empty() const { return events_.empty(); }
  const std::vector<RepairEvent>& events() const { return events_; }
  /// Largest node index referenced by any repair (-1 when empty).
  int max_node() const;

  /// Checks the plan against the fault plan it repairs: every repaired node
  /// must have a permanent disk failure scheduled at or before the repair
  /// time (there is nothing to rebuild otherwise), and a node may be
  /// repaired at most once.
  Status ValidateAgainst(const sim::FaultPlan& faults) const;

  /// The plan in canonical spec form.
  std::string ToString() const;

 private:
  std::vector<RepairEvent> events_;
};

}  // namespace declust::recover
