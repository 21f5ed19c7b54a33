// Command-line experiment runner: configure any sweep the paper's figures
// use (mix, correlation, strategies, MPLs) and print a table or CSV.
//
//   run_experiment --mix low-moderate --correlation 1 --mpls 1,16,64 --csv
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/atomic_file.h"
#include "src/exp/degraded.h"
#include "src/exp/interrupt.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/sim/fault.h"
#include "tools/cli.h"

namespace declust::tools {

void Usage() {
  std::cerr <<
      "usage: run_experiment [options]\n"
      "  --mix M            low-low | low-moderate | moderate-low |\n"
      "                     moderate-moderate (default low-low)\n"
      "  --correlation F    attribute correlation in [0,1] (default 0)\n"
      "  --strategies S     comma list of range,hash,BERD,MAGIC\n"
      "  --mpls L           comma list of multiprogramming levels\n"
      "  --cardinality N    relation size (default 100000)\n"
      "  --processors P     processor count (default 32)\n"
      "  --qb-low-tuples N  selectivity of the low query on B (default 10)\n"
      "  --warmup MS        simulated warm-up (default 4000)\n"
      "  --measure MS       simulated measurement window (default 24000)\n"
      "  --repeats R        replications per point, reports 95% CI (default 1)\n"
      "  --seed S           RNG seed (default 7)\n"
      "  --jobs N           worker threads for the sweep (default: the\n"
      "                     DECLUST_JOBS env var, else 1); results are\n"
      "                     byte-identical for any N\n"
      "  --faults SPEC      fault-injection plan, ';'-separated events:\n"
      "                     disk:nodeN@t=T | io:nodeN@t=T,rate=R,for=D |\n"
      "                     slow:nodeN@t=T,x=F,for=D | crash:nodeN@t=T,down=D\n"
      "                     (times take an s or ms suffix, default seconds)\n"
      "  --recovery SPEC    recovery plan, ';'-separated repairs:\n"
      "                     repair:nodeN@t=T[,rate=R][,batch=B] — rebuild\n"
      "                     node N from its chained backup starting at T\n"
      "                     (R MB/s throttle, 0 = unthrottled; B pages per\n"
      "                     burst). Requires --faults with a preceding disk\n"
      "                     failure; adds per-phase recovery columns\n"
      "  --resize SPEC      elastic-membership plan, ';'-separated items:\n"
      "                     add:nodeN[-M]@t=T[,rate=R][,batch=B] |\n"
      "                     remove:nodeN[-M]@t=T (drain-then-remove) |\n"
      "                     rebalance:auto@t=T[,threshold=X][,every=D]\n"
      "                     [,settle=K][,max_moves=N] | slices:N.\n"
      "                     --processors is the initial membership; adds\n"
      "                     per-phase resize columns to reports\n"
      "  --open SPEC        open-system workload plan, ';'-separated items:\n"
      "                     rate:R[@t=T] (Poisson arrivals, q/s) |\n"
      "                     burst:N@t=T | zipf:S (access skew) |\n"
      "                     tail:p=P,x=F (heavy-tailed widths) |\n"
      "                     relation:card=N[,weight=W][,corr=C] (additional\n"
      "                     relations on the same disks) | cap:N (admission\n"
      "                     cap; excess arrivals are shed). Replaces the\n"
      "                     closed terminals with Poisson/burst arrivals;\n"
      "                     --mpls is ignored, the sweep levels come from\n"
      "                     --offered. Incompatible with --recovery\n"
      "  --control SPEC     closed-loop control plan, ';'-separated items:\n"
      "                     slo:pQQ<Bms[,every=D][,settle=K][,cooldown=C]\n"
      "                     [,low=L] (QQ one of 50/95/99) |\n"
      "                     scale:min=M,max=N[,step=S][,rate=R][,batch=P] |\n"
      "                     budget:frac=F[,concurrent=C] |\n"
      "                     degrade:floor=N[,factor=X].\n"
      "                     A feedback controller samples the observed pQQ\n"
      "                     response each window and scales out/in, pauses\n"
      "                     migrations or tightens admission to hold the\n"
      "                     SLO; adds per-decision report/CSV columns.\n"
      "                     Incompatible with --resize/--recovery\n"
      "  --offered L1,L2    offered arrival rates (q/s) swept under --open;\n"
      "                     each level overrides the plan's rate schedule\n"
      "                     with that constant rate. Default: one level\n"
      "                     running the plan's own schedule\n"
      "  --degraded K       run the degraded-mode sweep with 0..K disks\n"
      "                     failed at t=0 and print the degradation report\n"
      "                     (ignores --faults)\n"
      "  --watchdog S       warn on stderr when a replication runs longer\n"
      "                     than S wall-clock seconds (default off)\n"
      "  --audit            arm the invariant-audit subsystem: conservation\n"
      "                     identities checked live in every replication,\n"
      "                     cross-strategy result oracle, and a differential\n"
      "                     re-run (serial vs parallel, inactive fault plan).\n"
      "                     Summary on stderr; exit 1 on any violation.\n"
      "                     Results are unchanged by auditing.\n"
      "  --csv              emit CSV instead of the table\n"
      "  --out FILE         write the report to FILE (atomic temp-file +\n"
      "                     rename) instead of stdout; on SIGINT/SIGTERM\n"
      "                     the completed sweep points are still flushed\n"
      "  --components       collect per-query response components (disk\n"
      "                     wait/service, cpu, network, queue) per point\n"
      "  --manifest FILE    write a run manifest (build, seed, params,\n"
      "                     per-point metric digests) as JSON\n"
      "  --trace FILE       write a Chrome trace_event JSON of one traced\n"
      "                     replication (first strategy, first MPL)\n"
      "  --trace-csv FILE   same trace as a flat CSV span table\n"
      "  --metrics-json FILE  write the traced replication's full metrics\n"
      "                     registry and simulator counters as JSON\n";
}

}  // namespace declust::tools

namespace {

using namespace declust;         // NOLINT(build/namespaces)
using namespace declust::tools;  // NOLINT(build/namespaces)

/// Prints an audited sweep's verdict to stderr; returns false on violations.
bool ReportAudit(const exp::SweepResult& result) {
  std::cerr << "audit: " << result.audit_checks << " invariant checks, "
            << result.audit_violations << " violations; oracle: "
            << result.oracle_queries << " queries, " << result.oracle_checks
            << " checks, " << result.oracle_mismatches << " mismatches\n";
  for (const auto& msg : result.audit_messages) {
    std::cerr << "  violation: " << msg << "\n";
  }
  return result.audit_violations == 0 && result.oracle_mismatches == 0;
}

/// SIGINT/SIGTERM request a cooperative stop: the runner finishes the
/// replications already in flight, drops the rest, and the report/manifest
/// are flushed (atomically) with only complete points, marked interrupted.
extern "C" void OnTerminationSignal(int /*signum*/) {
  declust::exp::RequestInterrupt();
}

}  // namespace

int main(int argc, char** argv) {
  exp::ExperimentConfig cfg;
  cfg.name = "low-low";
  exp::RunnerOptions runner_opts;
  exp::ExplainOptions explain_opts;
  bool csv = false;
  int degraded = -1;
  std::string out_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    // Accept both "--opt value" and "--opt=value".
    std::string inline_value;
    bool has_inline_value = false;
    if (arg.rfind("--", 0) == 0) {
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        has_inline_value = true;
        arg.resize(eq);
      }
    }
    const auto next = [&]() -> const char* {
      if (has_inline_value) return inline_value.c_str();
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--mix") {
      if (!ParseMix(next(), &cfg)) {
        Usage();
        return 2;
      }
    } else if (arg == "--correlation") {
      cfg.correlation = RequireDouble("--correlation", next(), 0.0, 1.0);
    } else if (arg == "--strategies") {
      cfg.strategies = SplitCsv(next());
    } else if (arg == "--mpls") {
      cfg.mpls.clear();
      for (const auto& m : SplitCsv(next())) {
        cfg.mpls.push_back(RequireInt("--mpls", m, 1, 1 << 20));
      }
    } else if (arg == "--cardinality") {
      cfg.cardinality = RequireInt64("--cardinality", next(), 1,
                                     std::numeric_limits<int64_t>::max());
    } else if (arg == "--processors") {
      cfg.num_processors = RequireInt("--processors", next(), 1, 1 << 20);
    } else if (arg == "--qb-low-tuples") {
      cfg.mix.qb_low_tuples = RequireInt64("--qb-low-tuples", next(), 1,
                                           std::numeric_limits<int64_t>::max());
    } else if (arg == "--warmup") {
      cfg.warmup_ms = RequireDouble("--warmup", next(), 0.0, 1e15);
    } else if (arg == "--measure") {
      cfg.measure_ms = RequireDouble("--measure", next(), 1e-9, 1e15);
    } else if (arg == "--repeats") {
      cfg.repeats = RequireInt("--repeats", next(), 1, 1 << 20);
    } else if (arg == "--seed") {
      cfg.seed = static_cast<uint64_t>(RequireInt64(
          "--seed", next(), 0, std::numeric_limits<int64_t>::max()));
    } else if (arg == "--jobs") {
      runner_opts.jobs = RequireInt("--jobs", next(), 0, 1 << 20);
    } else if (arg == "--faults") {
      cfg.faults = next();
    } else if (arg == "--recovery") {
      cfg.recovery = next();
    } else if (arg == "--resize") {
      cfg.resize = next();
    } else if (arg == "--control") {
      cfg.control = next();
    } else if (arg == "--open") {
      cfg.open = next();
    } else if (arg == "--offered") {
      cfg.offered_loads = RequireOfferedLoads(next());
    } else if (arg == "--degraded") {
      degraded = RequireInt("--degraded", next(), 0, 1 << 20);
    } else if (arg == "--watchdog") {
      runner_opts.watchdog_warn_s =
          RequireDouble("--watchdog", next(), 0.0, 1e9);
    } else if (arg == "--audit") {
      runner_opts.audit = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--components") {
      runner_opts.collect_components = true;
    } else if (arg == "--manifest") {
      runner_opts.manifest_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--trace") {
      explain_opts.trace_json_path = next();
    } else if (arg == "--trace-csv") {
      explain_opts.trace_csv_path = next();
    } else if (arg == "--metrics-json") {
      explain_opts.metrics_json_path = next();
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      Usage();
      return 2;
    }
  }

  // The degraded sweep ignores --faults, but a malformed spec is still an
  // error rather than something silently dropped.
  exp::ExperimentConfig check = cfg;
  if (degraded >= 0 && !cfg.faults.empty()) {
    const auto plan = sim::FaultPlan::Parse(cfg.faults);
    if (!plan.ok()) {
      std::cerr << "bad --faults spec: " << plan.status().message() << "\n";
      return 2;
    }
    check.faults.clear();
  }
  RequireValidConfig(check);

  // A termination request must not lose the sweep points already measured:
  // the handler only sets a flag, the runner stops launching replications,
  // and every file below is published with an atomic rename.
  std::signal(SIGINT, OnTerminationSignal);
  std::signal(SIGTERM, OnTerminationSignal);

  // Report sink: stdout, or --out FILE written atomically.
  const auto emit_report = [&out_path](const auto& print) -> bool {
    if (out_path.empty()) {
      print(std::cout);
      return true;
    }
    std::ostringstream os;
    print(os);
    const Status st = WriteFileAtomic(out_path, os.str());
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return false;
    }
    return true;
  };

  // Explain pass: one traced replication of the first (strategy, MPL)
  // point; runs before the sweep so its artifacts exist even if the sweep
  // config is large. Status goes to stderr, keeping stdout report-only.
  const bool explain = !explain_opts.trace_json_path.empty() ||
                       !explain_opts.trace_csv_path.empty() ||
                       !explain_opts.metrics_json_path.empty();
  if (explain) {
    const Status st = exp::RunExplain(cfg, explain_opts);
    if (!st.ok()) {
      std::cerr << "explain run failed: " << st.ToString() << "\n";
      return 1;
    }
    std::cerr << "explain: traced " << cfg.strategies.front() << " @ MPL "
              << cfg.mpls.front() << "\n";
  }

  if (degraded >= 0) {
    cfg.faults.clear();
    auto sweeps = exp::RunDegradedSweeps(cfg, degraded, runner_opts);
    if (!sweeps.ok()) {
      std::cerr << "experiment failed: " << sweeps.status().ToString()
                << "\n";
      return 1;
    }
    const bool emitted = emit_report([&](std::ostream& os) {
      if (csv) {
        for (const auto& sweep : *sweeps) exp::PrintCsv(os, sweep);
      } else {
        exp::PrintDegradedReport(os, *sweeps);
      }
    });
    if (!emitted) return 1;
    for (const auto& sweep : *sweeps) {
      if (sweep.interrupted) {
        std::cerr << "interrupted: flushed completed points only\n";
        return 130;
      }
    }
    if (runner_opts.audit) {
      bool ok = true;
      for (const auto& sweep : *sweeps) ok = ReportAudit(sweep) && ok;
      if (!ok) return 1;
    }
    return 0;
  }

  auto result = exp::RunThroughputSweep(cfg, runner_opts);
  if (!result.ok()) {
    std::cerr << "experiment failed: " << result.status().ToString() << "\n";
    return 1;
  }
  const bool emitted = emit_report([&](std::ostream& os) {
    if (csv) {
      exp::PrintCsv(os, *result);
    } else {
      exp::PrintThroughputTable(os, *result);
      exp::PrintRecoveryReport(os, *result);
      exp::PrintResizeReport(os, *result);
      exp::PrintControlReport(os, *result);
    }
  });
  if (!emitted) return 1;
  if (result->interrupted) {
    // Conventional exit code for "terminated by SIGINT"; the report and
    // manifest above hold only the sweep points that fully completed.
    std::cerr << "interrupted: flushed completed points only; manifest "
                 "marked interrupted\n";
    return 130;
  }
  if (runner_opts.audit) {
    bool ok = ReportAudit(*result);
    // Differential re-run of the first sweep point: serial vs parallel vs
    // armed-but-inactive fault plan must reproduce the same digests.
    auto diff = exp::RunAuditDifferential(cfg, runner_opts);
    if (!diff.ok()) {
      std::cerr << "audit differential failed: " << diff.status().ToString()
                << "\n";
      return 1;
    }
    std::cerr << diff->Summary() << "\n";
    for (const auto& msg : diff->Mismatches()) {
      std::cerr << "  mismatch: " << msg << "\n";
    }
    if (!diff->ok() || !ok) return 1;
  }
  return 0;
}
