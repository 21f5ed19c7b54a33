// Control plans: the declared SLO and action policy for the closed-loop
// control plane (src/control/controller.h).
//
// A ControlPlan is the control-side counterpart of sim::FaultPlan,
// recover::RecoveryPlan, resize::ResizePlan and workload::OpenPlan, in the
// plan grammar of DESIGN.md ("Plan grammar").
//
//   slo:pQQ<Bms[,every=D][,settle=K][,cooldown=C][,low=L]
//     The declared latency objective: the observed pQQ response (QQ one of
//     50, 95, 99) over each D-long window must stay below B. After K
//     consecutive windows over the bound the controller acts (pause
//     migrations, scale out, tighten admission); after K consecutive
//     windows below L*B it relaxes (resume, relax admission, scale in).
//     C is the post-action cooldown during which no further membership or
//     admission action fires (anti-oscillation). Exactly one slo item.
//     Defaults: D=5s, K=3, C=4*D, L=0.5.
//   scale:min=M,max=N[,step=S][,rate=R][,batch=P]
//     Elastic-membership bounds: the controller may scale out by S nodes at
//     a time up to N members and scale in (one node at a time) down to M,
//     never below a membership size it has observed to violate the SLO and
//     never re-adding a node it previously removed (the two ratchets that
//     make convergence provable). R/P throttle the resulting migrations.
//     At most one; without it the controller only manages admission.
//     Defaults: S=1, R=0 (the budget is the only throttle), P=8.
//   budget:frac=F[,concurrent=C]
//     Migration contention budget: migration I/O on any node is capped at
//     fraction F of the node's disk transfer rate (enforced per page in the
//     simulated I/O layer, see sim::IoBudget), and up to C slice
//     migrations run concurrently under that cap. At most one.
//     Defaults: F=0.25, C=2.
//   degrade:floor=N[,factor=X]
//     Overload-safe degradation: when over SLO with no capacity left (or
//     while migrations are paused), the admission cap is multiplied by X
//     (floored at N in-flight queries); recovery relaxes it back toward the
//     open plan's cap. At most one; without it the controller never sheds.
//
//   B, D, C   durations (B, D > 0)
//   F         in (0, 1];  L in [0, 1);  X in (0, 1)
#pragma once

#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/spec.h"
#include "src/common/status.h"

namespace declust::control {

/// The declared latency objective and the feedback-loop timing.
struct SloTarget {
  int quantile = 95;        ///< 50, 95 or 99
  double bound_ms = 0.0;    ///< the objective: pQQ < bound_ms
  double every_ms = 5000.0;  ///< observation window length
  int settle = 3;           ///< consecutive windows before acting
  double cooldown_ms = -1.0;  ///< < 0 = default (4 * every_ms)
  double low = 0.5;         ///< recovery threshold fraction of the bound
};

/// Elastic-membership bounds for controller-driven scale-out/scale-in.
struct ScaleBounds {
  int min_nodes = 2;
  int max_nodes = 2;
  int step = 1;                 ///< nodes added per scale-out
  double rate_mb_per_sec = 0.0;  ///< extra per-migration throttle (0 = none)
  int batch_pages = spec::kDefaultBatchPages;
};

/// Migration contention budget: fraction of per-node disk bandwidth and
/// how many slice migrations may run concurrently under it.
struct ContentionBudget {
  double frac = 0.25;
  int concurrent = 2;
};

/// Overload-safe degradation policy for the admission cap.
struct DegradePolicy {
  int floor = 16;
  double factor = 0.5;
};

/// \brief A parsed, validated control-plane policy.
class ControlPlan {
 public:
  ControlPlan() = default;

  /// Parses a `--control` spec; InvalidArgument on malformed input.
  static Result<ControlPlan> Parse(std::string_view spec);
  /// The kinds and keys Parse accepts and ToString prints.
  static const spec::Grammar& grammar();

  bool empty() const { return !have_slo_; }
  const SloTarget& slo() const { return slo_; }
  bool has_scale() const { return have_scale_; }
  const ScaleBounds& scale() const { return scale_; }
  const ContentionBudget& budget() const { return budget_; }
  bool has_degrade() const { return have_degrade_; }
  const DegradePolicy& degrade() const { return degrade_; }

  /// The post-action cooldown with its default resolved.
  double cooldown_ms() const {
    return slo_.cooldown_ms >= 0.0 ? slo_.cooldown_ms : 4.0 * slo_.every_ms;
  }

  /// Semantic checks against the run shape: the scale bounds must bracket
  /// the initial membership, and — mirroring the resize-plan rule — the
  /// controller's `settle * every` observation window must fit inside the
  /// run horizon (`horizon_ms` > 0), else the loop can never act.
  Status Validate(int initial_nodes, double horizon_ms = 0.0) const;

  /// Physical machine size a control run needs: room for every node the
  /// controller may ever add.
  int NumPhysicalNodes(int initial_nodes) const;

  /// Logical slice count the partitioning must be built with (every
  /// physical node must be able to own at least one slice).
  int NumSlices(int initial_nodes) const;

  /// The plan in canonical spec form.
  std::string ToString() const;

 private:
  SloTarget slo_;
  ScaleBounds scale_;
  ContentionBudget budget_;
  DegradePolicy degrade_;
  bool have_slo_ = false;
  bool have_scale_ = false;
  bool have_budget_ = false;
  bool have_degrade_ = false;
};

}  // namespace declust::control
