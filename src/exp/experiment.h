// Experiment harness: reproduces the paper's throughput-vs-multiprogramming
// sweeps (figures 8-12) and the grid-shape diagnostics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/decluster/strategy.h"
#include "src/engine/system.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

namespace declust::exp {

/// \brief Configuration of one figure's experiment.
struct ExperimentConfig {
  std::string name;
  workload::ResourceClass qa = workload::ResourceClass::kLow;
  workload::ResourceClass qb = workload::ResourceClass::kLow;
  workload::MixOptions mix;
  /// Correlation of the partitioning attribute values (0 = low, 1 = high).
  double correlation = 0.0;
  std::vector<int> mpls = {1, 8, 16, 24, 32, 40, 48, 56, 64};
  std::vector<std::string> strategies = {"range", "BERD", "MAGIC"};
  int64_t cardinality = 100'000;
  int num_processors = 32;
  uint64_t seed = 7;
  /// Simulated warm-up before measurement starts (ms).
  double warmup_ms = 4'000;
  /// Simulated measurement window (ms).
  double measure_ms = 24'000;
  /// Independent replications per (strategy, MPL) point; throughput is
  /// averaged and a 95% confidence half-width reported when > 1.
  int repeats = 1;
  /// Fault-injection spec (sim::FaultPlan::Parse grammar, e.g.
  /// "disk:node3@t=5s;io:node7@t=0,rate=0.05"). Empty = failure-free run;
  /// reports then keep their exact pre-fault format.
  std::string faults;
  /// Recovery spec (recover::RecoveryPlan::Parse grammar, e.g.
  /// "repair:node3@t=12s,rate=4"). Requires a fault spec with a disk
  /// failure preceding each repair. Empty = no recovery subsystem armed;
  /// reports and digests then keep their exact pre-recovery format.
  std::string recovery;
  /// Elastic-membership spec (resize::ResizePlan::Parse grammar, e.g.
  /// "add:node32-47@t=20s;remove:node32-47@t=60s" or
  /// "rebalance:auto@t=10s,threshold=1.4"). `num_processors` is the
  /// *initial* membership; the machine is sized for the largest membership
  /// the plan reaches, and the partitioning is built over the plan's
  /// logical slice count. Empty = no resize subsystem armed; reports and
  /// digests then keep their exact pre-resize format.
  std::string resize;
  /// Open-system workload spec (workload::OpenPlan::Parse grammar, e.g.
  /// "rate:200;zipf:0.8;relation:card=50000,weight=0.5;cap:256"). When set,
  /// every replication drives the engine with Poisson/burst arrivals
  /// instead of the closed terminals, and the sweep levels are the entries
  /// of `offered_loads` (the MPL list is ignored). Combines with a resize
  /// or control spec (arrivals keep coming while slices migrate) but not
  /// with a recovery spec. Empty = closed loop; reports and digests then
  /// keep their exact pre-open format.
  std::string open;
  /// Closed-loop control spec (control::ControlPlan::Parse grammar, e.g.
  /// "slo:p95<40ms,every=5s,settle=3;scale:min=32,max=48;budget:frac=0.25,
  /// concurrent=2;degrade:floor=64"). When set, every replication arms a
  /// plan-less migration coordinator plus the SLO controller that drives
  /// membership, migration pacing and admission from observed response
  /// quantiles. `num_processors` is the initial membership; the machine is
  /// sized for scale:max. Incompatible with a resize or recovery spec (the
  /// controller owns membership; the rebuild driver owns the closed loop's
  /// pacing). Empty = no control plane armed; reports and digests then keep
  /// their exact pre-control format.
  std::string control;
  /// Offered arrival rates (queries/sec) swept when `open` is set: each
  /// level re-runs the plan with its rate schedule replaced by that constant
  /// rate (OpenPlan::OverrideConstantRate). Empty = a single sweep level
  /// running the plan's own (possibly time-varying) schedule.
  std::vector<double> offered_loads;
  /// Build chained-declustering backups without a fault plan (a fault plan
  /// always builds them). Not a command-line option: the audit
  /// differential sets it for the baseline of its inactive-fault-plan
  /// variant, so that the pair differs only in the armed injector.
  bool chained_backups = false;
};

/// \brief One measured sweep point: one replication, or a point's
/// replications aggregated by the column table (src/exp/columns.h), which
/// gives each metric below its CSV name, group and aggregation rule.
struct SweepPoint {
  /// The sweep level: the multiprogramming level for closed-loop runs, the
  /// index into ExperimentConfig::offered_loads for open-system runs (whose
  /// load itself is in `offered_qps`).
  int mpl = 0;
  double throughput_qps = 0;
  /// 95% confidence half-width across replications (0 for one replication).
  double throughput_ci95 = 0;
  double mean_response_ms = 0;
  double mean_response_ci95 = 0;
  double p95_response_ms = 0;
  double avg_processors_used = 0;
  /// Mean busy fraction of the operator nodes' disks over the window.
  double disk_utilization = 0;
  /// Mean busy fraction of the operator nodes' CPUs over the window.
  double cpu_utilization = 0;
  /// Completions in the window.
  int64_t completed = 0;
  /// Load imbalance across the surviving disks over the window: max node
  /// busy-time divided by mean node busy-time (1.0 = perfectly even).
  double disk_imbalance = 0;
  /// Fault-handling counters over the window; all zero in failure-free runs.
  int64_t io_errors = 0;
  int64_t retries = 0;
  int64_t timeouts = 0;
  int64_t failovers = 0;
  int64_t failed_queries = 0;
  /// Mean per-query response-time components (ms); measured only with a
  /// probe armed (RunnerOptions::collect_components). `cpu` folds in DMA
  /// transfers; `queue` folds CPU queueing and retry backoff;
  /// `unattributed` is response minus the component sum (negative when
  /// intra-query parallelism makes the buckets overlap).
  bool has_components = false;
  double comp_disk_wait_ms = 0;
  double comp_disk_service_ms = 0;
  double comp_cpu_ms = 0;
  double comp_network_ms = 0;
  double comp_queue_ms = 0;
  double comp_unattributed_ms = 0;
  /// Recovery lifecycle, measured only under a recovery plan. Per-phase
  /// throughput / mean response over the measurement window, indexed by
  /// recover::RecoveryCoordinator::Phase (normal, degraded, rebuilding,
  /// restored); zero-width phases report 0.
  bool has_recovery = false;
  double phase_qps[4] = {0, 0, 0, 0};
  double phase_resp_ms[4] = {0, 0, 0, 0};
  /// Phase-boundary timestamps (simulated ms); -1 when the boundary was
  /// never reached.
  double fail_ms = -1;
  double rebuild_start_ms = -1;
  double restored_ms = -1;
  /// Rebuild work accounting.
  int64_t rebuild_pages = 0;
  int64_t rebuilds_completed = 0;
  int64_t rebuilds_aborted = 0;
  /// Elastic membership, measured only under a resize plan. A plan with K
  /// membership events yields 2K+1 reporting phases (before/during/after
  /// each event); the vectors are indexed by phase.
  bool has_resize = false;
  std::vector<double> resize_phase_qps;
  std::vector<double> resize_phase_resp_ms;
  /// Migration accounting.
  int64_t migrations = 0;
  int64_t migrations_aborted = 0;
  int64_t pages_migrated = 0;
  int64_t migration_redirects = 0;
  int64_t rebalance_moves = 0;
  int64_t final_members = 0;
  /// Open system, measured only under an open plan. `offered_qps` is the
  /// nominal arrival rate of this sweep level (the measured rate when the
  /// plan's own schedule ran); `arrivals` / `shed` count the measurement
  /// window. `p99_response_ms` is -1 when no query completed inside the
  /// window (a paused or fully shed system): a well-defined blank, never a
  /// fabricated 0 or NaN.
  bool has_open = false;
  double offered_qps = 0;
  int64_t arrivals = 0;
  int64_t shed = 0;
  double p99_response_ms = -1;
  /// Control plane, measured only under a control plan. Windows and
  /// decisions count the whole run. Its migration counters reuse the resize
  /// machinery's accounting but surface under ctl_*, so a control run never
  /// emits scripted-resize phase columns.
  bool has_control = false;
  int64_t ctl_windows = 0;
  int64_t ctl_slo_violations = 0;  ///< observation windows over the bound
  int64_t ctl_scale_outs = 0;
  int64_t ctl_scale_ins = 0;
  int64_t ctl_pauses = 0;
  int64_t ctl_resumes = 0;
  int64_t ctl_tightens = 0;
  int64_t ctl_relaxes = 0;
  int64_t ctl_shed = 0;  ///< arrivals shed by the controller's cap
  int64_t ctl_migrations = 0;
  int64_t ctl_pages_migrated = 0;
  int64_t ctl_final_members = 0;
  int64_t ctl_peak_concurrent = 0;  ///< max concurrently in-flight migrations
  int64_t ctl_budget_throttled = 0;  ///< budget reservations that delayed
  double ctl_budget_max_delay_ms = 0;
  /// One controller actuation. An aggregated point carries the timeline of
  /// its representative replication (rep 0): averaging decision times
  /// across replications would fabricate timestamps no run produced.
  struct ControlDecision {
    std::string kind;        ///< control::DecisionKindName
    double at_ms = 0;        ///< simulated actuation time
    double observed_ms = 0;  ///< window quantile that triggered it
    int members = 0;         ///< membership after the action
    int cap = -1;            ///< effective admission cap after (-1 = closed)
  };
  std::vector<ControlDecision> ctl_decisions;
};

/// \brief One strategy's curve across the MPL sweep.
struct StrategyCurve {
  std::string strategy;
  std::vector<SweepPoint> points;
  /// Extra per-strategy diagnostics (grid shape for MAGIC, etc.).
  std::string note;
};

/// \brief A complete figure result.
struct SweepResult {
  ExperimentConfig config;
  std::vector<StrategyCurve> curves;
  /// True when the sweep ran with per-query component probes armed. Each
  /// has_* flag here gates one group of report columns (src/exp/columns.h):
  /// the group is measured in every point and printed by every report. The
  /// faults group is gated by a non-empty `config.faults` instead.
  bool has_components = false;
  /// Audit outcome (RunnerOptions::audit): live invariant checks summed
  /// across every replication, plus the cross-strategy result oracle's
  /// verdict. All zero / empty when the sweep ran unaudited.
  bool audited = false;
  int64_t audit_checks = 0;
  int64_t audit_violations = 0;
  int64_t oracle_queries = 0;
  int64_t oracle_checks = 0;
  int64_t oracle_mismatches = 0;
  /// First few violation/mismatch descriptions, prefixed with their origin
  /// replication or "oracle:".
  std::vector<std::string> audit_messages;
  /// True when the sweep ran with a recovery plan armed (recovery group).
  bool has_recovery = false;
  /// True when the sweep ran with an elastic-membership plan armed (resize
  /// group, including the variable-width rz_phase columns).
  bool has_resize = false;
  /// True when the sweep ran with an open-system plan armed (open group);
  /// reports also label each level by its offered load instead of an MPL,
  /// and the oracle validates every extra relation too.
  bool has_open = false;
  /// True when the sweep ran with a closed-loop control plan armed (control
  /// group); reports also print rep 0's per-decision timeline.
  bool has_control = false;
  /// True when a SIGINT/SIGTERM interrupt stopped the sweep early; only
  /// the sweep points whose replications all completed are present, and
  /// the manifest carries an `interrupted` marker.
  bool interrupted = false;
};

/// Rejects configs that would run a meaningless (or crashing) sweep:
/// num_processors/cardinality/repeats < 1, negative warmup, non-positive
/// measurement window, correlation outside [0, 1], empty or non-positive
/// MPL list, empty strategy list, fault specs that do not parse or that
/// target a node outside [0, num_processors), open specs that do not parse
/// or combine with recovery, control specs that do not parse or combine
/// with resize/recovery, rebalance or SLO hysteresis that can never trigger
/// inside the run horizon, and non-positive or duplicate offered loads.
/// Called
/// by RunThroughputSweep and RunExplain after quick-mode is applied, so
/// every entry point fails fast with a diagnostic instead of dividing by
/// zero mid-sweep.
Status ValidateExperimentConfig(const ExperimentConfig& config);

/// Builds a partitioning by strategy name ("range", "hash", "BERD",
/// "MAGIC") for the given relation and workload.
Result<std::unique_ptr<decluster::Partitioning>> MakePartitioning(
    const std::string& strategy, const storage::Relation& relation,
    const workload::Workload& workload, int num_processors);

/// Number of logical partitioning fragments (slices) the config's runs must
/// be built with: `num_processors` normally; under a --resize plan the
/// plan's slice count (>= the largest membership it reaches, raised further
/// by a `slices:N` item — the MAGIC grid re-splitting knob). Call after
/// ValidateExperimentConfig.
Result<int> PartitioningSlices(const ExperimentConfig& config);

/// Runs the full sweep: one relation build, one partitioning per strategy,
/// one simulation per (strategy, MPL, replication) point. Delegates to the
/// parallel runner (src/exp/runner.h) with the worker count taken from the
/// DECLUST_JOBS environment variable (default 1); results are byte-identical
/// for any job count.
Result<SweepResult> RunThroughputSweep(const ExperimentConfig& config);

/// Shrinks a config for fast runs when the environment variable
/// DECLUST_QUICK is set (used by tests and smoke runs).
ExperimentConfig ApplyQuickMode(ExperimentConfig config);

}  // namespace declust::exp
