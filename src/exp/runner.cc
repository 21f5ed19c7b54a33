#include "src/exp/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "src/audit/oracle.h"
#include "src/common/atomic_file.h"
#include "src/common/thread_pool.h"
#include "src/control/controller.h"
#include "src/control/plan.h"
#include "src/exp/columns.h"
#include "src/exp/interrupt.h"
#include "src/obs/manifest.h"
#include "src/obs/trace.h"
#include "src/recover/recovery.h"
#include "src/resize/migrate.h"
#include "src/resize/plan.h"
#include "src/sim/fault.h"
#include "src/sim/io_budget.h"
#include "src/workload/open.h"

namespace declust::exp {

namespace {

/// One phase window's throughput (q/s) and mean response (ms); an empty
/// window reports 0 for both.
std::pair<double, double> PhaseRates(const recover::PhaseWindow& w) {
  const double width_ms = w.end_ms - w.start_ms;
  return {
      width_ms > 0 ? static_cast<double>(w.completed) / width_ms * 1e3 : 0,
      w.completed > 0 ? w.response_sum_ms / static_cast<double>(w.completed)
                      : 0};
}

}  // namespace

Result<SweepPoint> RunSweepPointRep(
    const ExperimentConfig& config, const storage::Relation& relation,
    const decluster::Partitioning& partitioning,
    const workload::Workload& workload,
    int mpl, int rep, obs::Probe* probe, std::string* metrics_json,
    audit::Auditor* auditor,
    const std::vector<engine::SystemConfig::ExtraRelation>* extra_relations,
    std::shared_ptr<const engine::CatalogTrees> trees) {
  engine::SystemConfig sys_config;
  sys_config.trees = std::move(trees);
  sys_config.hw.num_processors = config.num_processors;
  sys_config.multiprogramming_level = mpl;
  sys_config.seed = config.seed + static_cast<uint64_t>(mpl) * 1000 +
                    static_cast<uint64_t>(rep) * 7'919;
  sys_config.probe = probe;
  sys_config.audit = auditor;
  // The plan lives on this frame; each replication parses it independently
  // so the function stays a pure function of its arguments.
  sys_config.catalog.chained_backups = config.chained_backups;
  sim::FaultPlan fault_plan;
  if (!config.faults.empty()) {
    DECLUST_ASSIGN_OR_RETURN(fault_plan, sim::FaultPlan::Parse(config.faults));
    sys_config.fault_plan = &fault_plan;
  }
  // The recovery coordinator (like the plans) lives on this frame; it is
  // confined to this replication's Simulation, so the function stays pure.
  recover::RecoveryPlan recovery_plan;
  std::unique_ptr<recover::RecoveryCoordinator> coordinator;
  if (!config.recovery.empty()) {
    DECLUST_ASSIGN_OR_RETURN(recovery_plan,
                             recover::RecoveryPlan::Parse(config.recovery));
    coordinator = std::make_unique<recover::RecoveryCoordinator>(
        &recovery_plan);
    sys_config.recovery = coordinator.get();
  }
  // The elastic-membership coordinator, same confinement. num_processors is
  // the *initial* membership; the machine is sized for the largest
  // membership the plan ever reaches.
  resize::ResizePlan resize_plan;
  std::unique_ptr<resize::MigrationCoordinator> migrator;
  if (!config.resize.empty()) {
    DECLUST_ASSIGN_OR_RETURN(resize_plan,
                             resize::ResizePlan::Parse(config.resize));
    migrator = std::make_unique<resize::MigrationCoordinator>(
        &resize_plan, config.num_processors);
    sys_config.hw.num_processors = migrator->num_physical_nodes();
    sys_config.resize = migrator.get();
  }
  // The closed-loop controller reuses the resize machinery for actuation: a
  // plan-less coordinator accepts its membership requests at runtime, and a
  // per-node I/O budget caps migration traffic at the declared fraction of
  // the simulated disk transfer rate. All three live on this frame, like
  // the plans above, so the function stays pure.
  control::ControlPlan control_plan;
  std::unique_ptr<control::ControlCoordinator> controller;
  std::unique_ptr<sim::IoBudget> io_budget;
  if (!config.control.empty()) {
    DECLUST_ASSIGN_OR_RETURN(control_plan,
                             control::ControlPlan::Parse(config.control));
    migrator = std::make_unique<resize::MigrationCoordinator>(
        config.num_processors,
        control_plan.NumPhysicalNodes(config.num_processors),
        control_plan.NumSlices(config.num_processors));
    // MB/s -> bytes/ms is *1000; the budget meters migration bytes per node.
    io_budget = std::make_unique<sim::IoBudget>(
        migrator->num_physical_nodes(),
        control_plan.budget().frac *
            sys_config.hw.disk_transfer_mb_per_sec * 1000.0);
    migrator->set_io_budget(io_budget.get());
    migrator->set_migration_concurrency(control_plan.budget().concurrent);
    controller = std::make_unique<control::ControlCoordinator>(
        &control_plan, config.num_processors);
    sys_config.hw.num_processors = migrator->num_physical_nodes();
    sys_config.resize = migrator.get();
    sys_config.control = controller.get();
  }
  // The open plan, like the fault/recovery/resize plans, is parsed on this
  // frame per replication; an offered-load sweep level replaces its rate
  // schedule with that level's constant rate. `mpl` is the level INDEX for
  // open runs, so the seed formula above keys closed and open runs alike.
  workload::OpenPlan open_plan;
  if (!config.open.empty()) {
    DECLUST_ASSIGN_OR_RETURN(open_plan,
                             workload::OpenPlan::Parse(config.open));
    if (!config.offered_loads.empty()) {
      open_plan.OverrideConstantRate(
          config.offered_loads[static_cast<size_t>(mpl)]);
    }
    sys_config.open = &open_plan;
    if (extra_relations != nullptr) {
      sys_config.extra_relations = *extra_relations;
    }
  }
  const int physical_nodes = sys_config.hw.num_processors;
  // The Simulation is declared strictly after every coordinator above: its
  // destructor tears down any coroutine frame still parked on the calendar
  // (e.g. a migration copy the controller paused and never resumed), and
  // those frames' guard destructors report back into the coordinators.
  sim::Simulation sim;
  if (auditor != nullptr) sim.SetAuditHook(auditor);
  if (probe != nullptr && probe->tracer() != nullptr) {
    // Count calendar dispatches in the trace (one indirect call per event;
    // only ever paid on explicitly traced runs).
    sim.SetTracer([tracer = probe->tracer()](sim::SimTime t, sim::EventId id,
                                             bool resume) {
      tracer->OnCalendarEvent(t, id, resume);
    });
  }
  engine::System system(&sim, sys_config, &relation, &partitioning,
                        &workload);
  DECLUST_RETURN_NOT_OK(system.Init());
  if (migrator != nullptr) {
    migrator->Arm(&sim, &system.machine(), system.mutable_catalog(), auditor,
                  probe, &system.metrics().slice_accesses());
    migrator->Start();
  }
  if (controller != nullptr) {
    controller->Arm(&sim, migrator.get(),
                    config.open.empty() ? -1 : open_plan.max_in_flight());
    controller->Start();
  }
  if (coordinator != nullptr) {
    double first_fault_ms = std::numeric_limits<double>::infinity();
    for (const sim::FaultEvent& ev : fault_plan.events()) {
      first_fault_ms = std::min(first_fault_ms, ev.at_ms);
    }
    coordinator->Arm(&sim, &system.machine(), &system.catalog(),
                     first_fault_ms, auditor, probe);
    coordinator->Start();
  }
  system.Start();

  sim.RunUntil(config.warmup_ms);
  system.metrics().StartMeasurement(sim.now());
  if (coordinator != nullptr) coordinator->StartMeasurement(sim.now());
  if (migrator != nullptr) migrator->StartMeasurement(sim.now());
  std::vector<double> disk_busy0(static_cast<size_t>(physical_nodes));
  double cpu_busy0 = 0;
  for (int n = 0; n < physical_nodes; ++n) {
    disk_busy0[static_cast<size_t>(n)] =
        system.machine().node(n).disk().busy_ms();
    cpu_busy0 += system.machine().node(n).cpu().busy_ms();
  }
  sim.RunUntil(config.warmup_ms + config.measure_ms);

  double disk_busy_sum = 0, disk_busy_max = 0, cpu_busy1 = 0;
  for (int n = 0; n < physical_nodes; ++n) {
    const double delta = system.machine().node(n).disk().busy_ms() -
                         disk_busy0[static_cast<size_t>(n)];
    disk_busy_sum += delta;
    disk_busy_max = std::max(disk_busy_max, delta);
    cpu_busy1 += system.machine().node(n).cpu().busy_ms();
  }
  double cpu_busy_delta = cpu_busy1 - cpu_busy0;
  const double node_window = config.measure_ms * physical_nodes;
  const double disk_busy_mean = disk_busy_sum / physical_nodes;

  SweepPoint m;
  m.mpl = mpl;
  m.throughput_qps = system.metrics().ThroughputQps(sim.now());
  m.mean_response_ms = system.metrics().response_ms().mean();
  m.p95_response_ms = system.metrics().ResponseQuantileMs(0.95);
  m.avg_processors_used = system.metrics().processors_used().mean();
  m.disk_utilization = disk_busy_sum / node_window;
  m.cpu_utilization = cpu_busy_delta / node_window;
  m.completed = system.metrics().completed_in_window();
  m.disk_imbalance = disk_busy_mean > 0 ? disk_busy_max / disk_busy_mean : 0;
  const engine::FaultStats& fs = system.metrics().faults();
  m.io_errors = fs.io_errors;
  m.retries = fs.retries;
  m.timeouts = fs.timeouts;
  m.failovers = fs.failovers;
  m.failed_queries = fs.failed_queries;
  if (probe != nullptr && system.metrics().has_components()) {
    const engine::Metrics& met = system.metrics();
    m.has_components = true;
    m.comp_disk_wait_ms = met.component_disk_wait().mean();
    m.comp_disk_service_ms = met.component_disk_service().mean();
    m.comp_cpu_ms =
        met.component_cpu_service().mean() + met.component_dma().mean();
    m.comp_network_ms = met.component_network().mean();
    m.comp_queue_ms =
        met.component_sched_queue().mean() + met.component_backoff().mean();
    m.comp_unattributed_ms = met.component_unattributed().mean();
  }
  if (coordinator != nullptr) {
    m.has_recovery = true;
    const auto phases = coordinator->Phases(sim.now());
    for (size_t p = 0; p < phases.size(); ++p) {
      std::tie(m.phase_qps[p], m.phase_resp_ms[p]) = PhaseRates(phases[p]);
    }
    // Unreached boundaries (rebuild never started / never finished) report
    // -1 rather than +inf so they survive CSV/JSON round-trips.
    const auto finite_or = [](double v) { return std::isfinite(v) ? v : -1.0; };
    m.fail_ms = finite_or(coordinator->first_fault_ms());
    m.rebuild_start_ms = finite_or(coordinator->rebuild_start_ms());
    m.restored_ms = finite_or(coordinator->restored_ms());
    m.rebuild_pages = coordinator->pages_rebuilt();
    m.rebuilds_completed = coordinator->rebuilds_completed();
    m.rebuilds_aborted = coordinator->rebuilds_aborted();
  }
  if (!config.open.empty()) {
    m.has_open = true;
    m.arrivals = system.metrics().open_arrivals();
    m.shed = system.metrics().open_shed();
    // The nominal level rate when sweeping offered loads; the measured
    // arrival rate when the plan's own (time-varying) schedule ran.
    m.offered_qps =
        config.offered_loads.empty()
            ? static_cast<double>(m.arrivals) / (config.measure_ms / 1e3)
            : config.offered_loads[static_cast<size_t>(mpl)];
    // An idle window has no response mass; -1 marks the blank (a histogram
    // quantile over zero samples would fabricate the lowest bucket edge).
    m.p99_response_ms = system.metrics().completed_in_window() > 0
                            ? system.metrics().ResponseQuantileMs(0.99)
                            : -1;
  }
  if (controller != nullptr) {
    m.has_control = true;
    m.ctl_windows = controller->windows();
    m.ctl_slo_violations = controller->slo_violation_windows();
    m.ctl_scale_outs = controller->scale_outs();
    m.ctl_scale_ins = controller->scale_ins();
    m.ctl_pauses = controller->pauses();
    m.ctl_resumes = controller->resumes();
    m.ctl_tightens = controller->cap_tightens();
    m.ctl_relaxes = controller->cap_relaxes();
    m.ctl_shed = system.metrics().control_shed();
    m.ctl_migrations = migrator->migrations_completed();
    m.ctl_pages_migrated = migrator->pages_migrated();
    m.ctl_final_members = migrator->final_members();
    m.ctl_peak_concurrent = migrator->peak_concurrent_migrations();
    m.ctl_budget_throttled = io_budget->throttled_reservations();
    m.ctl_budget_max_delay_ms = io_budget->max_delay_ms();
    m.ctl_decisions.reserve(controller->decisions().size());
    for (const control::Decision& d : controller->decisions()) {
      m.ctl_decisions.push_back(SweepPoint::ControlDecision{
          control::DecisionKindName(d.kind), d.at_ms, d.observed_ms,
          d.members, d.cap});
    }
  }
  // Control runs share the migrator but report under ctl_* below; the
  // scripted-resize phase columns stay a --resize exclusive.
  if (migrator != nullptr && !config.resize.empty()) {
    m.has_resize = true;
    const auto phases = migrator->Phases(sim.now());
    m.resize_phase_qps.resize(phases.size(), 0.0);
    m.resize_phase_resp_ms.resize(phases.size(), 0.0);
    for (size_t p = 0; p < phases.size(); ++p) {
      std::tie(m.resize_phase_qps[p], m.resize_phase_resp_ms[p]) =
          PhaseRates(phases[p]);
    }
    m.migrations = migrator->migrations_completed();
    m.migrations_aborted = migrator->migrations_aborted();
    m.pages_migrated = migrator->pages_migrated();
    m.migration_redirects = migrator->migration_redirects();
    m.rebalance_moves = migrator->rebalance_moves();
    m.final_members = migrator->final_members();
  }
  // Finalize while the Simulation is still alive: the calendar-balance
  // identity needs its pending-event count.
  if (auditor != nullptr) auditor->Finalize(sim);
  if (metrics_json != nullptr) {
    std::ostringstream os;
    os << "{\n  \"sim\": {\n"
       << "    \"events_dispatched\": " << sim.events_dispatched() << ",\n"
       << "    \"peak_pending_events\": " << sim.peak_pending_events();
    if (probe != nullptr && probe->tracer() != nullptr) {
      os << ",\n    \"calendar_events_traced\": "
         << probe->tracer()->calendar_events()
         << ",\n    \"calendar_resumes_traced\": "
         << probe->tracer()->calendar_resumes()
         << ",\n    \"spans_dropped\": " << probe->tracer()->dropped();
    }
    os << "\n  },\n  \"metrics\": ";
    system.metrics().registry().WriteJson(os);
    os << "\n}\n";
    *metrics_json = os.str();
  }
  return m;
}

namespace {

/// Aggregates the replications of one sweep point, column by column. The
/// point starts as rep 0 for the group flags all reps share and for rep 0's
/// control decision timeline (SweepPoint::ctl_decisions).
SweepPoint AggregatePoint(int mpl, const SweepPoint* reps, int num_reps) {
  const std::span<const SweepPoint> all(reps, static_cast<size_t>(num_reps));
  SweepPoint point = reps[0];
  point.mpl = mpl;
  for (const Column& c : SweepColumns()) AggregateColumn(c, all, &point);
  return point;
}

/// Canonical rendering of one aggregated point, digested into the run
/// manifest so a CSV artifact can be matched to the manifest that produced
/// it. %.17g round-trips doubles exactly.
std::string PointDigestKey(const std::string& strategy, const SweepPoint& p) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%s|mpl=%d|qps=%.17g|resp=%.17g|p95=%.17g|procs=%.17g|"
                "disk=%.17g|cpu=%.17g|done=%lld|imb=%.17g|"
                "f=%lld/%lld/%lld/%lld/%lld",
                strategy.c_str(), p.mpl, p.throughput_qps,
                p.mean_response_ms, p.p95_response_ms,
                p.avg_processors_used, p.disk_utilization, p.cpu_utilization,
                static_cast<long long>(p.completed), p.disk_imbalance,
                static_cast<long long>(p.io_errors),
                static_cast<long long>(p.retries),
                static_cast<long long>(p.timeouts),
                static_cast<long long>(p.failovers),
                static_cast<long long>(p.failed_queries));
  std::string key(buf);
  if (p.has_recovery) {
    // Recovery fields join the digest only when armed, so failure-free
    // manifests keep their exact pre-recovery fingerprints.
    char rbuf[640];
    std::snprintf(rbuf, sizeof(rbuf),
                  "|rec=%.17g/%.17g/%.17g|pq=%.17g/%.17g/%.17g/%.17g|"
                  "pr=%.17g/%.17g/%.17g/%.17g|pages=%lld|rb=%lld/%lld",
                  p.fail_ms, p.rebuild_start_ms, p.restored_ms,
                  p.phase_qps[0], p.phase_qps[1], p.phase_qps[2],
                  p.phase_qps[3], p.phase_resp_ms[0], p.phase_resp_ms[1],
                  p.phase_resp_ms[2], p.phase_resp_ms[3],
                  static_cast<long long>(p.rebuild_pages),
                  static_cast<long long>(p.rebuilds_completed),
                  static_cast<long long>(p.rebuilds_aborted));
    key += rbuf;
  }
  if (p.has_resize) {
    // Resize fields (variable phase count) join the digest only when an
    // elastic plan is armed, so static-membership manifests keep their
    // exact pre-resize fingerprints.
    char zbuf[256];
    std::snprintf(zbuf, sizeof(zbuf),
                  "|rz=%lld/%lld/%lld/%lld/%lld|mem=%d",
                  static_cast<long long>(p.migrations),
                  static_cast<long long>(p.migrations_aborted),
                  static_cast<long long>(p.pages_migrated),
                  static_cast<long long>(p.migration_redirects),
                  static_cast<long long>(p.rebalance_moves),
                  static_cast<int>(p.final_members));
    key += zbuf;
    for (size_t i = 0; i < p.resize_phase_qps.size(); ++i) {
      std::snprintf(zbuf, sizeof(zbuf), "|z%zu=%.17g/%.17g", i,
                    p.resize_phase_qps[i], p.resize_phase_resp_ms[i]);
      key += zbuf;
    }
  }
  if (p.has_open) {
    // Open-system fields join the digest only when an open plan is armed,
    // so closed-loop manifests keep their exact pre-open fingerprints.
    char obuf[192];
    std::snprintf(obuf, sizeof(obuf),
                  "|open=%.17g|arr=%lld|shed=%lld|p99=%.17g",
                  p.offered_qps, static_cast<long long>(p.arrivals),
                  static_cast<long long>(p.shed), p.p99_response_ms);
    key += obuf;
  }
  if (p.has_control) {
    // Controller fields join the digest only when a control plan is armed,
    // so uncontrolled manifests keep their exact pre-control fingerprints.
    char cbuf[320];
    std::snprintf(cbuf, sizeof(cbuf),
                  "|ctl=%lld/%lld|act=%lld/%lld/%lld/%lld/%lld/%lld|"
                  "cshed=%lld|cmig=%lld/%lld/%d/%d|bud=%lld/%.17g",
                  static_cast<long long>(p.ctl_windows),
                  static_cast<long long>(p.ctl_slo_violations),
                  static_cast<long long>(p.ctl_scale_outs),
                  static_cast<long long>(p.ctl_scale_ins),
                  static_cast<long long>(p.ctl_pauses),
                  static_cast<long long>(p.ctl_resumes),
                  static_cast<long long>(p.ctl_tightens),
                  static_cast<long long>(p.ctl_relaxes),
                  static_cast<long long>(p.ctl_shed),
                  static_cast<long long>(p.ctl_migrations),
                  static_cast<long long>(p.ctl_pages_migrated),
                  static_cast<int>(p.ctl_final_members),
                  static_cast<int>(p.ctl_peak_concurrent),
                  static_cast<long long>(p.ctl_budget_throttled),
                  p.ctl_budget_max_delay_ms);
    key += cbuf;
  }
  return key;
}

/// Joins numeric values as a JSON array token for a manifest param.
template <typename T>
std::string JsonArray(const std::vector<T>& values, bool quote = false) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) os << ",";
    if (quote) {
      os << '"' << values[i] << '"';
    } else {
      os << values[i];
    }
  }
  os << "]";
  return os.str();
}

obs::Manifest BuildSweepManifest(const SweepResult& result, int jobs) {
  const ExperimentConfig& cfg = result.config;
  obs::Manifest manifest;
  manifest.tool = "run_experiment";
  manifest.build = obs::BuildVersion();
  manifest.seed = cfg.seed;
  manifest.jobs = jobs;
  manifest.fault_spec = cfg.faults;
  manifest.params = {
      {"name", '"' + cfg.name + '"'},
      {"correlation", std::to_string(cfg.correlation)},
      {"cardinality", std::to_string(cfg.cardinality)},
      {"num_processors", std::to_string(cfg.num_processors)},
      {"warmup_ms", std::to_string(cfg.warmup_ms)},
      {"measure_ms", std::to_string(cfg.measure_ms)},
      {"repeats", std::to_string(cfg.repeats)},
      {"strategies", JsonArray(cfg.strategies, /*quote=*/true)},
      {"mpls", JsonArray(cfg.mpls)},
      {"components", result.has_components ? "true" : "false"},
  };
  // Recovery / interrupt markers only appear when applicable, so ordinary
  // manifests stay byte-identical to their pre-recovery form.
  if (!cfg.recovery.empty()) {
    manifest.params.push_back({"recovery", '"' + cfg.recovery + '"'});
  }
  if (!cfg.resize.empty()) {
    manifest.params.push_back({"resize", '"' + cfg.resize + '"'});
  }
  if (!cfg.control.empty()) {
    manifest.params.push_back({"control", '"' + cfg.control + '"'});
  }
  if (!cfg.open.empty()) {
    manifest.params.push_back({"open", '"' + cfg.open + '"'});
    if (!cfg.offered_loads.empty()) {
      manifest.params.push_back({"offered_loads",
                                 JsonArray(cfg.offered_loads)});
    }
  }
  if (result.interrupted) {
    manifest.params.push_back({"interrupted", "true"});
  }
  std::string all;
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      const std::string key = PointDigestKey(curve.strategy, p);
      std::string point_name;
      if (p.has_open) {
        char nb[96];
        std::snprintf(nb, sizeof(nb), "%s/load=%g", curve.strategy.c_str(),
                      p.offered_qps);
        point_name = nb;
      } else {
        point_name = curve.strategy + "/mpl=" + std::to_string(p.mpl);
      }
      manifest.points.push_back(
          obs::ManifestPoint{std::move(point_name), obs::Fnv1a64(key)});
      all += key;
      all += '\n';
    }
  }
  manifest.result_digest = obs::Fnv1a64(all);
  return manifest;
}

/// Watchdog state per job. Atomics because workers write while the watchdog
/// thread reads; no ordering beyond the values themselves is needed.
struct JobWatch {
  std::atomic<double> started_s{-1.0};
  std::atomic<bool> done{false};
};

/// Shared read-only inputs of an open-system sweep beyond the base
/// relation: the plan's extra relations (built once, like the base) and,
/// per strategy, the partitionings over them. The engine puts every extra
/// relation's catalog on the base relation's disks, so only the
/// partitionings differ by strategy.
struct OpenInputs {
  std::vector<storage::Relation> relations;
  /// parts[s][e] owns strategy s's partitioning of extra relation e.
  std::vector<std::vector<std::unique_ptr<decluster::Partitioning>>> parts;
  /// views[s] is the ExtraRelation list handed to strategy s's replications.
  std::vector<std::vector<engine::SystemConfig::ExtraRelation>> views;
};

/// One strategy's index-tree sets: the base relation's and, for an open
/// run, each extra relation's. Built before the strategy's first
/// replication and dropped after its last (a countdown, so it also holds
/// under --jobs), so a serial sweep keeps one strategy's trees at a time.
struct StrategyTrees {
  std::once_flag built;
  Status status;
  std::shared_ptr<const engine::CatalogTrees> base;
  /// The strategy's extra-relation views, each carrying its trees.
  std::vector<engine::SystemConfig::ExtraRelation> extras;
  std::atomic<size_t> jobs_left{0};
};

/// Builds `out`'s sets with the attributes and fanout RunSweepPointRep's
/// catalogs use (a mismatch would fail their Build, never go unnoticed).
Status BuildStrategyTrees(
    const storage::Relation& relation,
    const decluster::Partitioning& partitioning,
    const std::vector<engine::SystemConfig::ExtraRelation>* extra_relations,
    StrategyTrees* out) {
  const engine::SystemConfig sys;
  const auto build = [&](const storage::Relation* rel,
                         const decluster::Partitioning* part) {
    return engine::CatalogTrees::Build(rel, part, sys.attr_a, sys.attr_b,
                                       sys.catalog.index_fanout,
                                       sys.catalog.build_jobs);
  };
  DECLUST_ASSIGN_OR_RETURN(out->base, build(&relation, &partitioning));
  if (extra_relations != nullptr) {
    out->extras = *extra_relations;
    for (auto& er : out->extras) {
      DECLUST_ASSIGN_OR_RETURN(er.trees, build(er.relation, er.partitioning));
    }
  }
  return Status::OK();
}

Result<OpenInputs> BuildOpenInputs(const ExperimentConfig& config,
                                   const workload::Workload& wl,
                                   int num_slices) {
  OpenInputs inputs;
  DECLUST_ASSIGN_OR_RETURN(const workload::OpenPlan plan,
                           workload::OpenPlan::Parse(config.open));
  const auto& specs = plan.extra_relations();
  inputs.relations.reserve(specs.size());
  for (size_t e = 0; e < specs.size(); ++e) {
    workload::WisconsinOptions wopts;
    wopts.cardinality = specs[e].cardinality;
    wopts.correlation = specs[e].correlation;
    // Offset seeds keep every relation's value streams distinct while the
    // whole input set stays a pure function of the config seed.
    wopts.seed = config.seed + 100 + e;
    inputs.relations.push_back(workload::MakeWisconsin(wopts));
  }
  inputs.parts.resize(config.strategies.size());
  inputs.views.resize(config.strategies.size());
  for (size_t s = 0; s < config.strategies.size(); ++s) {
    for (size_t e = 0; e < inputs.relations.size(); ++e) {
      DECLUST_ASSIGN_OR_RETURN(
          auto p, MakePartitioning(config.strategies[s], inputs.relations[e],
                                   wl, num_slices));
      inputs.views[s].push_back(engine::SystemConfig::ExtraRelation{
          &inputs.relations[e], p.get()});
      inputs.parts[s].push_back(std::move(p));
    }
  }
  return inputs;
}

}  // namespace

Result<SweepResult> RunThroughputSweep(const ExperimentConfig& raw_config,
                                       const RunnerOptions& options) {
  const ExperimentConfig config = ApplyQuickMode(raw_config);
  DECLUST_RETURN_NOT_OK(ValidateExperimentConfig(config));
  const int jobs = ThreadPool::ResolveJobs(options.jobs);

  // Shared read-only inputs, built once.
  workload::WisconsinOptions wopts;
  wopts.cardinality = config.cardinality;
  wopts.correlation = config.correlation;
  wopts.seed = config.seed;
  const storage::Relation relation = workload::MakeWisconsin(wopts);
  const workload::Workload wl =
      workload::MakeMix(config.qa, config.qb, config.mix);

  // Under a --resize plan the partitioning covers the plan's logical slice
  // count (>= the largest membership reached), not just the initial nodes.
  DECLUST_ASSIGN_OR_RETURN(const int num_slices, PartitioningSlices(config));
  std::vector<std::unique_ptr<decluster::Partitioning>> partitionings;
  partitionings.reserve(config.strategies.size());
  for (const std::string& strategy : config.strategies) {
    DECLUST_ASSIGN_OR_RETURN(
        auto p, MakePartitioning(strategy, relation, wl, num_slices));
    partitionings.push_back(std::move(p));
  }

  // Open-mode shared inputs (the plan's extra relations plus per-strategy
  // partitionings over them), built once like the base relation.
  const bool open_mode = !config.open.empty();
  OpenInputs open_inputs;
  if (open_mode) {
    DECLUST_ASSIGN_OR_RETURN(open_inputs,
                             BuildOpenInputs(config, wl, num_slices));
  }

  // Flat job list over (strategy, level, rep); slot `JobIndex` of the
  // results array belongs to exactly one job, so workers never contend.
  const size_t num_strategies = config.strategies.size();
  // Sweep levels: the MPL list normally; the offered-load list under an
  // open plan (a single level running the plan's own schedule when no
  // offered loads were given).
  const size_t num_mpls = open_mode
                              ? std::max<size_t>(1, config.offered_loads.size())
                              : config.mpls.size();
  // The level value reported and passed to the replication: the MPL for
  // closed runs, the level index for open runs (RunSweepPointRep maps it
  // back to the offered load).
  const auto level_value = [&](size_t m) {
    return open_mode ? static_cast<int>(m) : config.mpls[m];
  };
  const int reps = std::max(1, config.repeats);
  const size_t num_jobs =
      num_strategies * num_mpls * static_cast<size_t>(reps);
  std::vector<SweepPoint> rep_metrics(num_jobs);
  std::vector<Status> rep_status(num_jobs, Status::OK());
  // Set (by the owning worker only) when a pending interrupt made the job
  // exit without simulating; the point it belongs to is dropped at assembly.
  std::vector<char> rep_skipped(num_jobs, 0);
  // One auditor per replication (confined to its Simulation, like the
  // probe); slot ownership makes concurrent writes race-free.
  std::vector<std::unique_ptr<audit::Auditor>> auditors(
      options.audit ? num_jobs : 0);

  const auto job_index = [&](size_t s, size_t m, int r) {
    return (s * num_mpls + m) * static_cast<size_t>(reps) +
           static_cast<size_t>(r);
  };

  // Watchdog bookkeeping (active only when options.watchdog_warn_s > 0).
  const auto wall_start = std::chrono::steady_clock::now();
  const auto elapsed_s = [wall_start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         wall_start)
        .count();
  };
  std::vector<JobWatch> watches(num_jobs);
  std::vector<StrategyTrees> strategy_trees(num_strategies);
  for (StrategyTrees& t : strategy_trees) {
    t.jobs_left = num_mpls * static_cast<size_t>(reps);
  }

  const auto run_job = [&](size_t s, size_t m, int r) {
    const size_t idx = job_index(s, m, r);
    StrategyTrees& trees = strategy_trees[s];
    // The strategy's last replication (run or skipped) drops its trees.
    const auto finish = [&] {
      watches[idx].done.store(true, std::memory_order_relaxed);
      if (trees.jobs_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        trees.base.reset();
        trees.extras.clear();
      }
    };
    // Cooperative interrupt (SIGINT/SIGTERM via tools): stop launching
    // simulations; already-finished replications are kept and flushed.
    if (InterruptRequested()) {
      rep_skipped[idx] = 1;
      finish();
      return;
    }
    watches[idx].started_s.store(elapsed_s(), std::memory_order_relaxed);
    // A worker must never take the pool down: any escaped exception becomes
    // a Status and surfaces through the normal sweep-order error path.
    try {
      std::call_once(trees.built, [&] {
        trees.status = BuildStrategyTrees(
            relation, *partitionings[s],
            open_mode ? &open_inputs.views[s] : nullptr, &trees);
      });
      if (!trees.status.ok()) {
        rep_status[idx] = trees.status;
        finish();
        return;
      }
      // One probe per replication (a Probe is bound to one Simulation's
      // hardware and carries per-submit context, so it cannot be shared
      // across workers). No tracer: sweeps collect costs only. Audited
      // runs always arm the probe — the response-tiling identity needs
      // per-query costs — but the comp_* columns still surface only when
      // --components asked for them.
      obs::Probe probe;
      audit::Auditor* auditor = nullptr;
      if (options.audit) {
        auditors[idx] = std::make_unique<audit::Auditor>();
        auditor = auditors[idx].get();
      }
      auto res = RunSweepPointRep(
          config, relation, *partitionings[s], wl, level_value(m), r,
          options.collect_components || options.audit ? &probe : nullptr,
          /*metrics_json=*/nullptr, auditor,
          open_mode ? &trees.extras : nullptr, trees.base);
      if (res.ok()) {
        rep_metrics[idx] = *res;
      } else {
        rep_status[idx] = res.status();
      }
    } catch (const std::exception& e) {
      rep_status[idx] =
          Status::Internal(std::string("replication threw: ") + e.what());
    } catch (...) {
      rep_status[idx] =
          Status::Internal("replication threw a non-standard exception");
    }
    finish();
  };

  std::mutex wd_mutex;
  std::condition_variable wd_cv;
  bool wd_stop = false;
  std::thread watchdog;
  if (options.watchdog_warn_s > 0) {
    watchdog = std::thread([&] {
      std::vector<bool> flagged(num_jobs, false);
      std::unique_lock<std::mutex> lock(wd_mutex);
      while (!wd_cv.wait_for(lock, std::chrono::seconds(1),
                             [&] { return wd_stop; })) {
        const double now_s = elapsed_s();
        for (size_t i = 0; i < num_jobs; ++i) {
          const double started =
              watches[i].started_s.load(std::memory_order_relaxed);
          if (flagged[i] || started < 0 ||
              watches[i].done.load(std::memory_order_relaxed)) {
            continue;
          }
          if (now_s - started > options.watchdog_warn_s) {
            flagged[i] = true;
            const size_t s = i / (num_mpls * static_cast<size_t>(reps));
            const size_t rem = i % (num_mpls * static_cast<size_t>(reps));
            const size_t m = rem / static_cast<size_t>(reps);
            const size_t r = rem % static_cast<size_t>(reps);
            std::fprintf(stderr,
                         "[runner watchdog] replication (strategy=%s, "
                         "level=%d, rep=%zu) still running after %.0f s — "
                         "possibly hung\n",
                         config.strategies[s].c_str(), level_value(m), r,
                         now_s - started);
          }
        }
      }
    });
  }

  if (jobs <= 1 || num_jobs <= 1) {
    for (size_t s = 0; s < num_strategies; ++s) {
      for (size_t m = 0; m < num_mpls; ++m) {
        for (int r = 0; r < reps; ++r) run_job(s, m, r);
      }
    }
  } else {
    ThreadPool pool(std::min<int>(jobs, static_cast<int>(num_jobs)));
    for (size_t s = 0; s < num_strategies; ++s) {
      for (size_t m = 0; m < num_mpls; ++m) {
        for (int r = 0; r < reps; ++r) {
          pool.Submit([&run_job, s, m, r] { run_job(s, m, r); });
        }
      }
    }
    pool.Wait();
  }

  if (watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> lock(wd_mutex);
      wd_stop = true;
    }
    wd_cv.notify_all();
    watchdog.join();
  }

  // Propagate the first failure in sweep order, then assemble.
  for (size_t i = 0; i < num_jobs; ++i) {
    DECLUST_RETURN_NOT_OK(rep_status[i]);
  }
  bool interrupted = false;
  for (char skipped : rep_skipped) interrupted |= skipped != 0;

  SweepResult result;
  result.config = config;
  result.has_components = options.collect_components;
  result.has_recovery = !config.recovery.empty();
  result.has_resize = !config.resize.empty();
  result.has_open = open_mode;
  result.has_control = !config.control.empty();
  result.interrupted = interrupted;
  // On an interrupted run an MPL row joins the result only when every
  // replication of every strategy at that MPL finished: a partial aggregate
  // would silently change the statistics it claims to carry, and reports
  // assume the curves are rectangular (same rows in every curve).
  std::vector<char> mpl_complete(num_mpls, 1);
  for (size_t s = 0; s < num_strategies; ++s) {
    for (size_t m = 0; m < num_mpls; ++m) {
      for (int r = 0; r < reps; ++r) {
        if (rep_skipped[job_index(s, m, r)] != 0) mpl_complete[m] = 0;
      }
    }
  }
  for (size_t s = 0; s < num_strategies; ++s) {
    StrategyCurve curve;
    curve.strategy = config.strategies[s];
    curve.note = partitionings[s]->DiagnosticNote();
    for (size_t m = 0; m < num_mpls; ++m) {
      if (mpl_complete[m] == 0) continue;
      curve.points.push_back(AggregatePoint(
          level_value(m), &rep_metrics[job_index(s, m, 0)], reps));
    }
    result.curves.push_back(std::move(curve));
  }

  if (options.audit) {
    result.audited = true;
    // Invariant totals, in sweep order so the retained messages are stable
    // for any job count.
    constexpr size_t kMaxMessages = 16;
    for (size_t s = 0; s < num_strategies; ++s) {
      for (size_t m = 0; m < num_mpls; ++m) {
        for (int r = 0; r < reps; ++r) {
          const audit::Auditor* a = auditors[job_index(s, m, r)].get();
          if (a == nullptr) continue;
          result.audit_checks += a->checks();
          result.audit_violations += a->violations();
          for (const std::string& msg : a->messages()) {
            if (result.audit_messages.size() >= kMaxMessages) break;
            result.audit_messages.push_back(
                config.strategies[s] + (open_mode ? "/level=" : "/mpl=") +
                std::to_string(level_value(m)) + "/rep=" +
                std::to_string(r) + ": " + msg);
          }
        }
      }
    }

    // Cross-strategy result oracle: one pass over all partitionings (they
    // share the relation and processor count by construction). Skipped on
    // an interrupt — the user asked the run to stop, not to start new work.
    if (!interrupted) {
      std::vector<const decluster::Partitioning*> parts;
      parts.reserve(partitionings.size());
      for (const auto& p : partitionings) parts.push_back(p.get());
      audit::OracleOptions oracle_opts;
      oracle_opts.seed = config.seed;
      const audit::OracleReport oracle = audit::RunOracle(
          relation, parts, wl, workload::WisconsinAttrs::kUnique1,
          workload::WisconsinAttrs::kUnique2, oracle_opts);
      result.oracle_queries = oracle.queries;
      result.oracle_checks = oracle.checks;
      result.oracle_mismatches = oracle.mismatches;
      for (const std::string& msg : oracle.messages) {
        if (result.audit_messages.size() >= kMaxMessages) break;
        result.audit_messages.push_back("oracle: " + msg);
      }
      // Open multi-relation runs: validate every extra relation's
      // partitionings against its own reference executor too.
      for (size_t e = 0; e < open_inputs.relations.size(); ++e) {
        std::vector<const decluster::Partitioning*> eparts;
        eparts.reserve(num_strategies);
        for (size_t s = 0; s < num_strategies; ++s) {
          eparts.push_back(open_inputs.parts[s][e].get());
        }
        const audit::OracleReport orep = audit::RunOracle(
            open_inputs.relations[e], eparts, wl,
            workload::WisconsinAttrs::kUnique1,
            workload::WisconsinAttrs::kUnique2, oracle_opts);
        result.oracle_queries += orep.queries;
        result.oracle_checks += orep.checks;
        result.oracle_mismatches += orep.mismatches;
        for (const std::string& msg : orep.messages) {
          if (result.audit_messages.size() >= kMaxMessages) break;
          result.audit_messages.push_back(
              "oracle[rel" + std::to_string(e + 1) + "]: " + msg);
        }
      }
    }
  }

  if (!options.manifest_path.empty()) {
    DECLUST_RETURN_NOT_OK(obs::WriteManifestFile(
        options.manifest_path, BuildSweepManifest(result, jobs)));
  }
  return result;
}

Status RunExplain(const ExperimentConfig& raw_config,
                  const ExplainOptions& options) {
  const ExperimentConfig config = ApplyQuickMode(raw_config);
  DECLUST_RETURN_NOT_OK(ValidateExperimentConfig(config));

  workload::WisconsinOptions wopts;
  wopts.cardinality = config.cardinality;
  wopts.correlation = config.correlation;
  wopts.seed = config.seed;
  const storage::Relation relation = workload::MakeWisconsin(wopts);
  const workload::Workload wl =
      workload::MakeMix(config.qa, config.qb, config.mix);
  DECLUST_ASSIGN_OR_RETURN(const int num_slices, PartitioningSlices(config));
  DECLUST_ASSIGN_OR_RETURN(
      auto partitioning,
      MakePartitioning(config.strategies.front(), relation, wl, num_slices));

  // Open configs trace the first offered-load level (index 0) instead of
  // the first MPL, with the extra relations built exactly as the sweep
  // builds them.
  OpenInputs open_inputs;
  const std::vector<engine::SystemConfig::ExtraRelation>* extra = nullptr;
  if (!config.open.empty()) {
    DECLUST_ASSIGN_OR_RETURN(open_inputs,
                             BuildOpenInputs(config, wl, num_slices));
    extra = &open_inputs.views.front();
  }

  obs::Tracer tracer;
  obs::Probe probe(&tracer);
  std::string metrics_json;
  DECLUST_RETURN_NOT_OK(
      RunSweepPointRep(config, relation, *partitioning, wl,
                       config.open.empty() ? config.mpls.front() : 0,
                       /*rep=*/0, &probe,
                       options.metrics_json_path.empty() ? nullptr
                                                         : &metrics_json,
                       /*auditor=*/nullptr, extra)
          .status());

  // Render in memory, publish with WriteFileAtomic: a crash or interrupt
  // mid-explain can never leave a truncated artifact at the target path.
  const auto write_file = [](const std::string& path,
                             const auto& emit) -> Status {
    std::ostringstream out;
    emit(out);
    return WriteFileAtomic(path, out.str());
  };
  if (!options.trace_json_path.empty()) {
    DECLUST_RETURN_NOT_OK(write_file(
        options.trace_json_path,
        [&](std::ostream& os) { tracer.WriteChromeJson(os); }));
  }
  if (!options.trace_csv_path.empty()) {
    DECLUST_RETURN_NOT_OK(
        write_file(options.trace_csv_path,
                   [&](std::ostream& os) { tracer.WriteCsv(os); }));
  }
  if (!options.metrics_json_path.empty()) {
    DECLUST_RETURN_NOT_OK(
        write_file(options.metrics_json_path,
                   [&](std::ostream& os) { os << metrics_json; }));
  }
  return Status::OK();
}

Result<audit::DifferentialReport> RunAuditDifferential(
    const ExperimentConfig& raw_config, const RunnerOptions& options) {
  ExperimentConfig config = ApplyQuickMode(raw_config);
  DECLUST_RETURN_NOT_OK(ValidateExperimentConfig(config));
  // One sweep point keeps the check cheap; >= 2 replications give the
  // parallel variant genuinely concurrent simulations to reorder.
  config.strategies = {config.strategies.front()};
  config.mpls = {config.mpls.front()};
  // Open configs shrink the same way: one offered-load level (or the plan's
  // own schedule when none were given).
  if (config.offered_loads.size() > 1) {
    config.offered_loads = {config.offered_loads.front()};
  }
  config.repeats = std::max(2, config.repeats);

  audit::DifferentialReport report;
  report.point =
      config.open.empty()
          ? config.strategies.front() + "/mpl=" +
                std::to_string(config.mpls.front())
          : config.strategies.front() + "/open-level=0";

  const auto run_variant = [](audit::DifferentialReport* rep,
                              const std::string& label,
                              const ExperimentConfig& cfg, int jobs,
                              bool audited) -> Status {
    RunnerOptions vopts;
    vopts.jobs = jobs;
    vopts.audit = audited;
    DECLUST_ASSIGN_OR_RETURN(const SweepResult res,
                             RunThroughputSweep(cfg, vopts));
    // Digest every aggregated point exactly as the run manifest does, so a
    // differential failure points at the same fingerprint a stored manifest
    // would show.
    std::string all;
    for (const auto& curve : res.curves) {
      for (const auto& p : curve.points) {
        all += PointDigestKey(curve.strategy, p);
        all += '\n';
      }
    }
    rep->variants.push_back(
        audit::VariantDigest{label, obs::Fnv1a64(all)});
    if (res.audited && (res.audit_violations > 0 || res.oracle_mismatches > 0)) {
      return Status::Internal(
          "differential variant '" + label + "' had " +
          std::to_string(res.audit_violations) + " invariant violation(s), " +
          std::to_string(res.oracle_mismatches) + " oracle mismatch(es)" +
          (res.audit_messages.empty() ? ""
                                      : ": " + res.audit_messages.front()));
    }
    return Status::OK();
  };

  DECLUST_RETURN_NOT_OK(
      run_variant(&report, "jobs=1", config, /*jobs=*/1, /*audited=*/false));
  DECLUST_RETURN_NOT_OK(run_variant(&report, "jobs=1+audit", config, 1, true));
  const int par = std::max(2, ThreadPool::ResolveJobs(options.jobs));
  DECLUST_RETURN_NOT_OK(run_variant(
      &report, "jobs=" + std::to_string(par) + "+audit", config, par, true));

  if (config.faults.empty()) {
    // Armed-but-inactive plan: the injector is armed, but its one event
    // fires far beyond the simulated horizon, so results must not move.
    // A fault plan also builds chained backups, which move results by
    // design (DESIGN §10): a migration re-chains them with real copies,
    // and an open run's extra relations are placed after them. So the
    // variant's baseline builds the same backups without an injector, and
    // that baseline must equal jobs=1 only on a static closed
    // configuration.
    ExperimentConfig backed = config;
    backed.chained_backups = true;
    const size_t backed_index = report.variants.size();
    DECLUST_RETURN_NOT_OK(run_variant(&report, "backups", backed, 1, true));
    if (!config.resize.empty() || !config.control.empty() ||
        !config.open.empty()) {
      report.variants.back().baseline = backed_index;
    }
    ExperimentConfig armed = backed;
    const long long never_ms = static_cast<long long>(
        (config.warmup_ms + config.measure_ms) * 10 + 1'000);
    armed.faults = "disk:node0@t=" + std::to_string(never_ms) + "ms";
    DECLUST_RETURN_NOT_OK(
        run_variant(&report, "fault-plan-inactive", armed, 1, true));
    report.variants.back().baseline = backed_index;
  }
  return report;
}

}  // namespace declust::exp
