// Audit driver: re-runs a throughput sweep with the invariant-audit
// subsystem armed and reports only the audit verdicts — conservation
// identities per replication, the cross-strategy result oracle, and the
// differential determinism harness (serial vs parallel vs inactive fault
// plan). Exit 0 means every check passed; the sweep's figures are not
// printed (use run_experiment for those).
//
//   audit_sweep --mix moderate-low --mpls 1,16 --repeats 2
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "src/exp/runner.h"
#include "tools/cli.h"

namespace declust::tools {

void Usage() {
  std::cerr <<
      "usage: audit_sweep [options]\n"
      "  --mix M            low-low | low-moderate | moderate-low |\n"
      "                     moderate-moderate (default low-low)\n"
      "  --correlation F    attribute correlation in [0,1] (default 0)\n"
      "  --strategies S     comma list of range,hash,BERD,MAGIC\n"
      "  --mpls L           comma list of multiprogramming levels\n"
      "  --cardinality N    relation size (default 100000)\n"
      "  --processors P     processor count (default 32)\n"
      "  --warmup MS        simulated warm-up (default 4000)\n"
      "  --measure MS       simulated measurement window (default 24000)\n"
      "  --repeats R        replications per point (default 1)\n"
      "  --seed S           RNG seed (default 7)\n"
      "  --jobs N           worker threads (default: DECLUST_JOBS, else 1)\n"
      "  --faults SPEC      fault-injection plan to audit under (same\n"
      "                     grammar as run_experiment --faults)\n"
      "  --recovery SPEC    recovery plan to audit under (same grammar as\n"
      "                     run_experiment --recovery; needs --faults) —\n"
      "                     also arms the epoch-flip/serve invariants\n"
      "  --resize SPEC      elastic-membership plan to audit under (same\n"
      "                     grammar as run_experiment --resize) — arms the\n"
      "                     migration conservation invariants\n"
      "  --control SPEC     closed-loop control plan to audit under (same\n"
      "                     grammar as run_experiment --control) — arms the\n"
      "                     migration + per-class shed invariants\n"
      "  --open SPEC        open-system workload plan to audit under (same\n"
      "                     grammar as run_experiment --open) — arms the\n"
      "                     arrival and shed conservation invariants\n"
      "  --offered L1,L2    offered arrival rates (q/s) swept under --open\n"
      "                     (default: one level at the plan's schedule)\n"
      "  --skip-differential  only run the in-sweep invariants + oracle\n";
}

}  // namespace declust::tools

using namespace declust;         // NOLINT(build/namespaces)
using namespace declust::tools;  // NOLINT(build/namespaces)

int main(int argc, char** argv) {
  exp::ExperimentConfig cfg;
  cfg.name = "low-low";
  exp::RunnerOptions runner_opts;
  runner_opts.audit = true;
  bool run_differential = true;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
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
    } else if (arg == "--skip-differential") {
      run_differential = false;
    } else if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      Usage();
      return 2;
    }
  }

  RequireValidConfig(cfg);

  auto result = exp::RunThroughputSweep(cfg, runner_opts);
  if (!result.ok()) {
    std::cerr << "audited sweep failed: " << result.status().ToString()
              << "\n";
    return 1;
  }
  std::cout << "invariants: " << result->audit_checks << " checks, "
            << result->audit_violations << " violations\n";
  std::cout << "oracle: " << result->oracle_queries << " queries, "
            << result->oracle_checks << " checks, "
            << result->oracle_mismatches << " mismatches\n";
  for (const auto& msg : result->audit_messages) {
    std::cout << "  violation: " << msg << "\n";
  }
  bool ok = result->audit_violations == 0 && result->oracle_mismatches == 0;

  if (run_differential) {
    auto diff = exp::RunAuditDifferential(cfg, runner_opts);
    if (!diff.ok()) {
      std::cerr << "differential failed: " << diff.status().ToString()
                << "\n";
      return 1;
    }
    std::cout << diff->Summary() << "\n";
    for (const auto& msg : diff->Mismatches()) {
      std::cout << "  mismatch: " << msg << "\n";
    }
    ok = ok && diff->ok();
  }

  std::cout << (ok ? "AUDIT PASS" : "AUDIT FAIL") << "\n";
  return ok ? 0 : 1;
}
