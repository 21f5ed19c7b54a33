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
  /// measures the components column group (SweepPoint::comp_*, gated by
  /// SweepPoint/SweepResult::has_components). Off by default: the
  /// probe-free path does zero observability work and its report output
  /// stays byte-identical.
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

/// One (strategy, MPL, replication) simulation's measurements: a SweepPoint,
/// named for callers that keep per-replication records.
using RepMetrics = SweepPoint;

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
Result<SweepPoint> RunSweepPointRep(
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
