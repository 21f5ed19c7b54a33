// Parallel experiment runner: fans the (strategy, MPL, replication) points
// of a throughput sweep across a worker pool.
//
// Determinism: every point is simulated in its own sim::Simulation +
// engine::System with an RNG seeded only by (config.seed, mpl, rep), and the
// relation/partitionings/workload are shared strictly read-only — so each
// point's measurements are bit-identical regardless of which thread runs it
// or in what order. Each strategy's catalog index trees are built once and
// shared read-only by its points the same way. Results are assembled in
// sweep order afterwards, making the full SweepResult byte-identical for
// any job count (verified by tests/exp/runner_determinism_test).
#pragma once

#include <memory>
#include <string>

#include "src/audit/audit.h"
#include "src/audit/differential.h"
#include "src/engine/catalog.h"
#include "src/exp/experiment.h"
#include "src/obs/probe.h"

namespace declust::exp {

/// \brief Execution options of the sweep runner.
struct RunnerOptions {
  /// Worker threads. 0 resolves the DECLUST_JOBS environment variable
  /// (default 1); 1 runs inline on the calling thread.
  int jobs = 0;
  /// Wall-clock seconds after which a still-running replication is flagged
  /// on stderr as possibly hung (0 = watchdog disabled). The watchdog only
  /// warns; it never kills work or changes results.
  double watchdog_warn_s = 0;
  /// Arm a per-replication cost probe (no tracer) so every sweep point
  /// carries a per-query component breakdown (SweepPoint::comp_*). Off by
  /// default: the probe-free path does zero observability work and its
  /// report output stays byte-identical.
  bool collect_components = false;
  /// When non-empty, RunThroughputSweep writes a run manifest (build id,
  /// seed, parameters, fault spec, per-point metric digests) to this path.
  std::string manifest_path = {};
  /// Arm the invariant-audit subsystem (src/audit): every replication runs
  /// with a per-run Auditor wired into its calendar and engine (conservation
  /// identities checked live), a probe is armed for the response-tiling
  /// check, and the cross-strategy result oracle validates every
  /// partitioning against the reference executor before the sweep starts.
  /// Results are unchanged — audit only observes — but the run costs extra
  /// CPU. Off by default: the disabled path is one null check per hook.
  bool audit = false;
};

/// \brief Raw measurements of one (strategy, MPL, replication) simulation.
struct RepMetrics {
  double throughput_qps = 0;
  double mean_response_ms = 0;
  double p95_response_ms = 0;
  double avg_processors_used = 0;
  double disk_utilization = 0;
  double cpu_utilization = 0;
  int64_t completed = 0;
  double disk_imbalance = 0;
  int64_t io_errors = 0;
  int64_t retries = 0;
  int64_t timeouts = 0;
  int64_t failovers = 0;
  int64_t failed_queries = 0;
  /// Mean per-query response components (ms); meaningful only when the rep
  /// ran with a probe (has_components).
  bool has_components = false;
  double comp_disk_wait_ms = 0;
  double comp_disk_service_ms = 0;
  double comp_cpu_ms = 0;
  double comp_network_ms = 0;
  double comp_queue_ms = 0;
  double comp_unattributed_ms = 0;
  /// Recovery lifecycle measurements; meaningful only when the rep ran with
  /// a recovery plan armed (has_recovery). Phase indices follow
  /// recover::RecoveryCoordinator::Phase; timestamps are -1 if unreached.
  bool has_recovery = false;
  double phase_qps[4] = {0, 0, 0, 0};
  double phase_resp_ms[4] = {0, 0, 0, 0};
  double fail_ms = -1;
  double rebuild_start_ms = -1;
  double restored_ms = -1;
  int64_t rebuild_pages = 0;
  int64_t rebuilds_completed = 0;
  int64_t rebuilds_aborted = 0;
  /// Elastic-membership measurements; meaningful only when the rep ran with
  /// a resize plan armed (has_resize). 2K+1 phases for K membership events.
  bool has_resize = false;
  std::vector<double> resize_phase_qps;
  std::vector<double> resize_phase_resp_ms;
  int64_t migrations = 0;
  int64_t migrations_aborted = 0;
  int64_t pages_migrated = 0;
  int64_t migration_redirects = 0;
  int64_t rebalance_moves = 0;
  int final_members = 0;
  /// Open-system measurements; meaningful only when the rep ran with an
  /// open plan armed (has_open). p99 is -1 when the window completed no
  /// queries (a well-defined blank, not a fabricated quantile).
  bool has_open = false;
  double offered_qps = 0;
  int64_t arrivals = 0;
  int64_t shed = 0;
  double p99_response_ms = -1;
  /// Closed-loop controller measurements; meaningful only when the rep ran
  /// with a control plan armed (has_control). Migration counters reuse the
  /// resize machinery's accounting but surface under ctl_* so a control run
  /// never emits scripted-resize phase columns.
  bool has_control = false;
  int64_t ctl_windows = 0;
  int64_t ctl_slo_violations = 0;
  int64_t ctl_scale_outs = 0;
  int64_t ctl_scale_ins = 0;
  int64_t ctl_pauses = 0;
  int64_t ctl_resumes = 0;
  int64_t ctl_tightens = 0;
  int64_t ctl_relaxes = 0;
  int64_t ctl_shed = 0;
  int64_t ctl_migrations = 0;
  int64_t ctl_pages_migrated = 0;
  int ctl_final_members = 0;
  int ctl_peak_concurrent = 0;
  int64_t ctl_budget_throttled = 0;
  double ctl_budget_max_delay_ms = 0;
  std::vector<SweepPoint::ControlDecision> ctl_decisions;
};

/// Runs one replication of one sweep point. Pure function of
/// (config, relation, partitioning, workload, mpl, rep); never touches
/// global state, so it is safe to call concurrently with distinct `mpl`/
/// `rep` against the same shared read-only inputs.
///
/// `mpl` is the sweep level: the multiprogramming level for closed-loop
/// configs, the index into config.offered_loads for open configs (the
/// closed seed formula then keys on the level index instead).
/// `extra_relations` (nullable; required non-null only when the open plan
/// declares relations) supplies this strategy's shared read-only extra
/// relations + partitionings (and optionally their index trees) for
/// multi-relation open runs.
///
/// `probe` (nullable, caller-owned, must not be shared across concurrent
/// calls) arms per-query cost attribution; if it carries a Tracer, the
/// simulation's calendar and every hardware model emit spans into it.
/// `metrics_json` (nullable) receives the run's full metrics registry plus
/// simulator counters as a JSON document.
/// `auditor` (nullable, caller-owned, one per concurrent call like `probe`)
/// is installed on the replication's Simulation and System; its end-of-run
/// identities are finalized before the function returns.
/// `trees` (nullable) is the partitioning's prebuilt index-tree set, shared
/// read-only with the strategy's other points; null builds it per call.
Result<RepMetrics> RunSweepPointRep(
    const ExperimentConfig& config, const storage::Relation& relation,
    const decluster::Partitioning& partitioning,
    const workload::Workload& workload,
    int mpl, int rep, obs::Probe* probe = nullptr,
    std::string* metrics_json = nullptr, audit::Auditor* auditor = nullptr,
    const std::vector<engine::SystemConfig::ExtraRelation>* extra_relations =
        nullptr,
    std::shared_ptr<const engine::CatalogTrees> trees = nullptr);

/// Runs the full sweep with `options.jobs` workers. The serial path
/// (jobs <= 1) and the parallel path share the same per-point and
/// aggregation code, so their outputs are byte-identical.
Result<SweepResult> RunThroughputSweep(const ExperimentConfig& config,
                                       const RunnerOptions& options);

/// \brief File sinks of an explain run (any empty path is skipped).
struct ExplainOptions {
  std::string trace_json_path;   ///< Chrome trace_event JSON (chrome://tracing)
  std::string trace_csv_path;    ///< flat span table
  std::string metrics_json_path; ///< metrics registry + simulator counters
};

/// Runs ONE traced replication — the first strategy at the first MPL — with
/// a Tracer-armed probe and writes the requested artifacts. Meant for
/// "explain one query" investigations (see EXPERIMENTS.md); keep the config
/// small (one strategy, --mpls 1) so the span ring holds the whole run.
Status RunExplain(const ExperimentConfig& config,
                  const ExplainOptions& options);

/// Differential determinism check: shrinks `config` to its FIRST strategy
/// and FIRST MPL (with at least 2 replications, so parallelism is real) and
/// re-runs that sweep point under variants that must not change results:
///   1. jobs=1, unaudited           (baseline)
///   2. jobs=1, audited             (audit layer must only observe)
///   3. jobs=N, audited             (scheduling independence, N >= 2)
///   4. jobs=1, audited, with chained backups built (its own baseline on
///      an elastic, controlled or open configuration, whose extent
///      placement backups move by design)
///   5. variant 4 plus an armed-but-inactive fault plan (event far beyond
///      the horizon), compared with variant 4
/// Variants 4 and 5 run only when `config` itself is fault-free. Each
/// variant's aggregated curve is digested exactly as the run manifest
/// digests it; any digest differing from its baseline's is a
/// reproducibility bug. Audit violations inside a variant fail the check
/// outright.
Result<audit::DifferentialReport> RunAuditDifferential(
    const ExperimentConfig& config, const RunnerOptions& options);

}  // namespace declust::exp
