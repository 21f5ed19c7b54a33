// declust_bench: the repository's end-to-end benchmark. It times four named
// workloads through the public user path, exp::RunThroughputSweep, and
// attributes host time to layers from a separate traced child.
//
//   declust_bench [--seed N] [--out FILE]
//       every workload: 1 discarded + 8 timed rounds, then one traced child
//       per workload and one micro child
//   declust_bench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//       one workload for S seconds; the last stdout line is a JSON summary
//       of the end-to-end (--trace 0) or per-layer (--trace 1) metrics
//   declust_bench --smoke [--out FILE]
//       shrunken configs, one round, self-checks (ctest -L bench)
//   declust_bench --compare A.json[,A2.json...] B.json[,B2.json...]
//       per (metric, workload) verdicts between two sets of --out documents
//
// Every timed iteration is a fresh child process (posix_spawn, reaped with
// wait4 so its ru_maxrss is its own), run one at a time with the DECLUST_*
// parallelism and quick-mode variables cleared. Host noise on a shared VM is
// large, so children run in rounds, medians are reported, and wall times are
// scaled by a fixed reference child timed in the same rounds (see
// kReferenceSeconds). Exit status: 0 when every output checked out, 1 on any
// failure or regression, 2 on bad usage or an unfit (Debug or sanitizer)
// build.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_e2e/inputs.h"
#include "bench_e2e/json.h"
#include "bench_e2e/summary.h"
#include "bench_e2e/workloads.h"
#include "src/common/parse.h"
#include "src/exp/runner.h"
#include "src/hw/node.h"
#include "src/sim/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"

extern char** environ;

namespace declust::bench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Build identity and hygiene.

const char* UnfitBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(DECLUST_BENCH_SANITIZED)
  return "a sanitizer build";
#elif !defined(NDEBUG)
  return "a Debug build (NDEBUG is not defined)";
#else
  return nullptr;
#endif
}

std::string BuildJson() {
  return std::string("{\"git\": ") + Quote(DECLUST_BENCH_GIT) +
         ", \"compiler\": " + Quote(DECLUST_BENCH_COMPILER) +
         ", \"build_type\": " + Quote(DECLUST_BENCH_BUILD_TYPE) +
         ", \"nproc\": " + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) + "}";
}

// ---------------------------------------------------------------------------
// Child processes.

struct ChildOutcome {
  bool ok = false;
  double wall_s = 0;
  double maxrss_mb = 0;
  std::string why;  ///< set when !ok
};

/// Runs `args` as a child with the parallelism/quick-mode variables removed
/// and its stdout sent to our stderr, and waits for it.
ChildOutcome Spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view var(*e);
    if (var.starts_with("DECLUST_JOBS=") ||
        var.starts_with("DECLUST_SIM_THREADS=") ||
        var.starts_with("DECLUST_QUICK=")) {
      continue;
    }
    envp.push_back(*e);
  }
  envp.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);

  ChildOutcome out;
  const auto t0 = Clock::now();
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                             envp.data());
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    out.why = "cannot spawn " + args[0] + ": " + std::strerror(rc);
    return out;
  }
  int status = 0;
  struct rusage ru {};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) {
      out.why = std::string("wait4: ") + std::strerror(errno);
      return out;
    }
  }
  out.wall_s = Since(t0);
  out.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  out.ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  if (!out.ok) {
    out.why = args[0] + " " + args[1] + " " + args[2] +
              (WIFEXITED(status)
                   ? " exited " + std::to_string(WEXITSTATUS(status))
                   : " killed by signal " + std::to_string(WTERMSIG(status)));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Child modes.

struct ChildArgs {
  const Workload* workload = nullptr;
  uint64_t seed = 7;
  bool smoke = false;
  std::string result;
  std::string work_dir;
};

int Fail(const Status& st) {
  std::fprintf(stderr, "declust_bench child: %s\n", st.ToString().c_str());
  return 1;
}

/// One RunThroughputSweep with a manifest written; records the manifest
/// digest and each point's completions.
int SweepChild(const ChildArgs& a) {
  exp::RunnerOptions opts;
  opts.jobs = 1;
  opts.audit = a.workload->audit;
  opts.manifest_path =
      a.work_dir + "/manifest-" + a.workload->name + ".json";
  auto res = exp::RunThroughputSweep(Config(*a.workload, a.seed, a.smoke),
                                     opts);
  if (!res.ok()) return Fail(res.status());
  auto manifest = ReadJsonFile(opts.manifest_path);
  if (!manifest.ok()) return Fail(manifest.status());
  std::ofstream out(a.result);
  out << "{\"digest\": " << Quote(manifest->String("result_digest"))
      << ", \"audit_violations\": " << res->audit_violations
      << ", \"oracle_mismatches\": " << res->oracle_mismatches
      << ", \"points\": [";
  bool first = true;
  for (const auto& curve : res->curves) {
    for (const auto& p : curve.points) {
      out << (first ? "" : ", ") << "{\"label\": "
          << Quote(curve.strategy + "/" + std::to_string(p.mpl))
          << ", \"completed\": " << p.completed << "}";
      first = false;
    }
  }
  out << "]}\n";
  return out ? 0 : 1;
}

/// The setup path: relations, partitionings, and one standalone catalog per
/// strategy, each freed before the next is built.
int SetupChild(const ChildArgs& a) {
  const exp::ExperimentConfig config = Config(*a.workload, a.seed, a.smoke);
  auto inputs = BuildSweepInputs(config, Untraced);
  if (!inputs.ok()) return Fail(inputs.status());
  for (size_t s = 0; s < config.strategies.size(); ++s) {
    auto built = BuildCatalog(config, *inputs, s);
    if (!built.ok()) return Fail(built.status());
  }
  return 0;
}

/// The host-speed reference: a fixed mix of sorting, hashing and pointer
/// chasing over a few MiB, in the benchmark's own code so that no change to
/// src/ can move it. Interleaved with the other children, its median tracks
/// the host's speed over the run (see kReferenceSeconds).
int ReferenceChild() {
  uint64_t x = 88172645463325252ULL;
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  uint64_t sink = 0;
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<uint64_t> keys(1 << 20);
    for (uint64_t& k : keys) k = next();
    std::sort(keys.begin(), keys.end());
    sink += keys[keys.size() / 2];
    std::unordered_map<uint64_t, uint64_t> counts;
    for (int i = 0; i < 300'000; ++i) counts[next() & 0xFFFFF] += i;
    sink += counts.size();
    std::vector<uint32_t> ring(1 << 21);
    std::iota(ring.begin(), ring.end(), 0);
    for (size_t i = ring.size() - 1; i > 0; --i) {
      std::swap(ring[i], ring[next() % (i + 1)]);
    }
    uint32_t at = 0;
    for (size_t i = 0; i < ring.size(); ++i) at = ring[at];
    sink += at;
  }
  // Observable, so the work cannot be optimised away.
  return sink == 0 ? 1 : 0;
}

sim::Task<> Hopper(sim::Simulation* s, int hops) {
  for (int i = 0; i < hops; ++i) co_await s->WaitFor(1.0);
}

sim::Task<> Contender(sim::Simulation* s, sim::Resource* r, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto guard = co_await r->Acquire();
    co_await s->WaitFor(0.1);
  }
}

sim::Task<> PageLoop(hw::Node* node, int pages, bool write,
                     int64_t* failures) {
  const hw::HwParams& p = node->params();
  for (int i = 0; i < pages; ++i) {
    const hw::PageAddress at{(i / p.disk_pages_per_cylinder) % p.disk_cylinders,
                             i % p.disk_pages_per_cylinder};
    // GCC 12 miscompiles co_await inside a conditional expression.
    Status st;
    if (write) {
      st = co_await node->WritePage(at);
    } else {
      st = co_await node->ReadPage(at);
    }
    if (!st.ok()) ++*failures;
  }
}

/// Operations per host second of `pass`: one discarded pass, then the
/// median of five.
double MedianRate(const std::function<int64_t()>& pass) {
  pass();
  std::vector<double> rates;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const int64_t ops = pass();
    rates.push_back(static_cast<double>(ops) / Since(t0));
  }
  return Summarize(rates).median;
}

/// Kernel and hw loops with warm-up; writes their rates.
int MicroChild(const ChildArgs& a) {
  const int scale = a.smoke ? 1 : 10;
  int64_t failures = 0;
  const auto pages = [&](bool write) {
    return MedianRate([&, write] {
      sim::Simulation s;
      hw::HwParams params;  // a bare 32-node machine
      hw::Machine machine(&s, params, RandomStream(a.seed));
      const int per_node = 100 * scale;
      for (int n = 0; n < params.num_processors; ++n) {
        s.Spawn(PageLoop(&machine.node(n), per_node, write, &failures));
      }
      s.Run();
      return static_cast<int64_t>(params.num_processors) * per_node;
    });
  };
  const std::vector<std::pair<std::string, double>> rates = {
      {"sim.coroutine_events_per_s", MedianRate([&] {
         int64_t events = 0;
         for (int k = 0; k < 2 * scale; ++k) {
           sim::Simulation s;
           for (int i = 0; i < 1000; ++i) s.Spawn(Hopper(&s, 100));
           s.Run();
           events += static_cast<int64_t>(s.events_dispatched());
         }
         return events;
       })},
      {"sim.resource_acquires_per_s", MedianRate([&] {
         int64_t grants = 0;
         for (int k = 0; k < 20 * scale; ++k) {
           sim::Simulation s;
           sim::Resource r(&s, 1);
           for (int i = 0; i < 128; ++i) s.Spawn(Contender(&s, &r, 20));
           s.Run();
           grants += static_cast<int64_t>(r.grants());
         }
         return grants;
       })},
      {"sim.cancel_pairs_per_s", MedianRate([&] {
         sim::Simulation s;
         int64_t cancelled = 0;
         double t = 1.0;
         for (int i = 0; i < 200'000 * scale; ++i) {
           cancelled += s.Cancel(s.ScheduleAt(t, [] {})) ? 1 : 0;
           t += 1e-9;
         }
         s.Run();
         return cancelled;
       })},
      {"hw.page_reads_per_s", pages(false)},
      {"hw.page_writes_per_s", pages(true)},
  };
  if (failures != 0) {
    return Fail(Status::Internal(std::to_string(failures) +
                                 " page operations failed"));
  }
  std::ofstream out(a.result);
  out << "{\"layers\": {";
  for (size_t i = 0; i < rates.size(); ++i) {
    out << (i == 0 ? "" : ", ") << Quote(rates[i].first) << ": "
        << Number(rates[i].second);
  }
  out << "}}\n";
  return out ? 0 : 1;
}

// ---------------------------------------------------------------------------
// The driver.

/// Checks a Chrome trace from the traced child: every span ends after it
/// starts, nests inside its parent, and has self time >= 0.
Status CheckSpans(const std::string& path) {
  DECLUST_ASSIGN_OR_RETURN(const Json trace, ReadJsonFile(path));
  const Json* events = trace.Get("traceEvents");
  if (events == nullptr || events->array.empty()) {
    return Status::Internal(path + ": no spans");
  }
  const auto& ev = events->array;
  for (size_t i = 0; i < ev.size(); ++i) {
    const Json* args = ev[i].Get("args");
    if (args == nullptr) return Status::Internal(path + ": span lacks args");
    const double start = args->Number("start_ns", -1);
    const double end = args->Number("end_ns", -1);
    const double parent = args->Number("parent", -2);
    const std::string where = path + ": span " + ev[i].String("name");
    if (start < 0 || end < start || args->Number("self_ns", -1) < 0) {
      return Status::Internal(where + " has a negative duration or self time");
    }
    if (parent == -1) continue;
    if (parent < 0 || parent >= static_cast<double>(i)) {
      return Status::Internal(where + " has a bad parent");
    }
    const Json* p = ev[static_cast<size_t>(parent)].Get("args");
    if (start < p->Number("start_ns") || end > p->Number("end_ns")) {
      return Status::Internal(where + " is not inside its parent");
    }
  }
  return Status::OK();
}

constexpr double kMinSetupPhaseSeconds = 0.5;

struct WorkloadRun {
  const Workload* workload = nullptr;
  /// Wall seconds of each timed child, and the sweep children's ru_maxrss.
  std::vector<double> sweep_wall_s, setup_wall_s, reference_s, rss_mb;
  int attempted = 0;  ///< sweep children run, warm-up included
  int failed = 0;
  std::string digest;                        ///< the first sweep's
  std::map<std::string, int64_t> completed;  ///< the first sweep's points
  double traced_wall_s = 0;
  std::vector<std::pair<std::string, double>> layers;
};

class Driver {
 public:
  Driver(std::string exe, uint64_t seed, bool smoke)
      : exe_(std::move(exe)), seed_(seed), smoke_(smoke) {
    const std::string dir = exe_.substr(0, exe_.rfind('/'));
    traced_exe_ = dir + "/declust_bench_traced";
    work_dir_ = dir + "/runs";
    ::mkdir(work_dir_.c_str(), 0755);
  }

  std::vector<std::string> errors;

  /// A sweep child; its timings join the samples when `keep`.
  void Sweep(WorkloadRun& run, bool keep) {
    const std::string result = ResultPath("sweep", run.workload->name);
    const ChildOutcome o = RunChild("sweep", run.workload->name, result);
    ++run.attempted;
    const std::string err = o.ok ? CheckSweep(run, result) : o.why;
    if (!err.empty()) {
      ++run.failed;
      errors.push_back(std::string(run.workload->name) + ": " + err);
    } else if (keep) {
      run.sweep_wall_s.push_back(o.wall_s);
      run.rss_mb.push_back(o.maxrss_mb);
    }
  }

  /// A discarded setup child: pages the binary and the inputs' code in.
  void Warmup(WorkloadRun& run) { Time("setup", run, nullptr); }

  /// One timed round: setup, reference and sweep children back to back, so
  /// the reference sees the same host conditions as the children it scales.
  /// Setup children repeat for at least kMinSetupPhaseSeconds, so that
  /// short, bursty ones still get a steady median.
  void Round(WorkloadRun& run) {
    const auto t0 = Clock::now();
    do {
      Time("setup", run, &run.setup_wall_s);
    } while (errors.empty() && Since(t0) < kMinSetupPhaseSeconds);
    Time("reference", run, &run.reference_s);
    Sweep(run, true);
  }

  void Traced(WorkloadRun& run) {
    const std::string result = ResultPath("traced", run.workload->name);
    const std::string trace = work_dir_ + "/trace-" + run.workload->name +
                              "-" + std::to_string(seed_) + ".json";
    std::vector<std::string> argv = {traced_exe_,  "--workload",
                                     run.workload->name, "--seed",
                                     std::to_string(seed_), "--result",
                                     result,       "--trace-out",
                                     trace};
    if (smoke_) argv.push_back("--smoke");
    std::remove(result.c_str());
    const ChildOutcome o = Spawn(argv);
    const std::string err = o.ok ? CheckTraced(run, result, trace) : o.why;
    if (!err.empty()) {
      errors.push_back(std::string(run.workload->name) + " traced: " + err);
    }
    run.traced_wall_s = o.wall_s;
  }

  /// The micro child's rates (shared by every workload's per-layer block).
  std::vector<std::pair<std::string, double>> Micro() {
    const std::string result = ResultPath("micro", "all");
    const ChildOutcome o = RunChild("micro", "", result);
    std::vector<std::pair<std::string, double>> layers;
    auto doc = ReadJsonFile(result);
    if (!o.ok || !doc.ok()) {
      errors.push_back("micro: " + (o.ok ? doc.status().ToString() : o.why));
      return layers;
    }
    if (const Json* l = doc->Get("layers")) {
      for (const auto& [k, v] : l->object) layers.push_back({k, v.number});
    }
    return layers;
  }

 private:
  /// A child whose only output is its exit status; its wall time joins
  /// `samples` unless that is null.
  void Time(const char* kind, WorkloadRun& run, std::vector<double>* samples) {
    const ChildOutcome o = RunChild(kind, run.workload->name, "");
    if (!o.ok) {
      errors.push_back(std::string(run.workload->name) + ": " + o.why);
    } else if (samples != nullptr) {
      samples->push_back(o.wall_s);
    }
  }

  std::string ResultPath(const char* kind, const char* workload) const {
    return work_dir_ + "/" + kind + "-" + workload + "-" +
           std::to_string(seed_) + ".json";
  }

  /// A child of this binary; `result` (if any) is removed first so a stale
  /// file can never pass for this child's output.
  ChildOutcome RunChild(const char* kind, const char* workload,
                        const std::string& result) const {
    std::vector<std::string> argv = {exe_, "--child", kind, "--seed",
                                     std::to_string(seed_)};
    if (*workload != '\0') argv.insert(argv.end(), {"--workload", workload});
    if (!result.empty()) {
      argv.insert(argv.end(), {"--result", result});
      std::remove(result.c_str());
    }
    if (smoke_) argv.push_back("--smoke");
    return Spawn(argv);
  }

  /// "" when the sweep's outputs check out: audit and oracle clean, the
  /// digest equal to the pin (if any) and to this run's first sweep.
  std::string CheckSweep(WorkloadRun& run, const std::string& result) {
    auto doc = ReadJsonFile(result);
    if (!doc.ok()) return doc.status().ToString();
    if (doc->Number("audit_violations") != 0 ||
        doc->Number("oracle_mismatches") != 0) {
      return "audit violations or oracle mismatches";
    }
    const std::string digest = doc->String("digest");
    const std::string pin = PinnedDigest(*run.workload, seed_, smoke_);
    if (!pin.empty() && digest != pin) {
      return "result digest " + digest + " differs from the pin " + pin;
    }
    if (run.digest.empty()) {
      run.digest = digest;
      if (const Json* points = doc->Get("points")) {
        for (const Json& p : points->array) {
          run.completed[p.String("label")] =
              static_cast<int64_t>(p.Number("completed"));
        }
      }
    } else if (digest != run.digest) {
      return "result digest " + digest + " differs from this run's first " +
             run.digest;
    }
    return "";
  }

  /// "" when the traced child simulated the same work as the untraced
  /// sweeps and its spans are well formed.
  std::string CheckTraced(WorkloadRun& run, const std::string& result,
                          const std::string& trace) {
    auto doc = ReadJsonFile(result);
    if (!doc.ok()) return doc.status().ToString();
    const Status spans = CheckSpans(trace);
    if (!spans.ok()) return spans.ToString();
    const Json* points = doc->Get("points");
    if (points == nullptr || points->array.size() != run.completed.size()) {
      return "traced points do not match the sweep's";
    }
    for (const Json& p : points->array) {
      const auto it = run.completed.find(p.String("label"));
      if (it == run.completed.end() ||
          static_cast<double>(it->second) != p.Number("completed")) {
        return "point " + p.String("label") +
               " completed differs from the untraced sweep";
      }
    }
    if (const Json* l = doc->Get("layers")) {
      for (const auto& [k, v] : l->object) run.layers.push_back({k, v.number});
    }
    return "";
  }

  std::string exe_, traced_exe_, work_dir_;
  uint64_t seed_;
  bool smoke_;
};

// ---------------------------------------------------------------------------
// Reporting.

struct Options {
  uint64_t seed = 7;
  std::string out;
  const Workload* workload = nullptr;
  int seconds = 0;  ///< 0: fixed rounds instead of a time budget
  int trace = -1;   ///< -1: both halves (fixed rounds)
  bool smoke = false;
};

/// The reference child's wall time on the nominal host at which sweep_s and
/// setup_s are reported. A run's wall times are scaled by kReferenceSeconds
/// over the median reference time of the same run: the speed of a shared
/// host drifts over minutes, moving the 10-run spread of paper_fig08's
/// sweep median to 12% while the scaled one stayed under 4%.
constexpr double kReferenceSeconds = 0.5;

/// The run's samples in EndToEndMetrics() order.
std::vector<std::vector<double>> Samples(const WorkloadRun& run) {
  const double scale =
      kReferenceSeconds / Summarize(run.reference_s).median;
  std::vector<std::vector<double>> out = {run.sweep_wall_s, run.setup_wall_s,
                                          run.rss_mb};
  for (int m = 0; m < 2; ++m) {
    for (double& v : out[static_cast<size_t>(m)]) v *= scale;
  }
  return out;
}

double LayerValue(const WorkloadRun& run, const std::string& name) {
  for (const auto& [k, v] : run.layers) {
    if (k == name) return v;
  }
  return std::nan("");
}

void FinishLayers(WorkloadRun& run,
                  const std::vector<std::pair<std::string, double>>& micro) {
  run.layers.insert(run.layers.end(), micro.begin(), micro.end());
  const double sweep = Summarize(run.sweep_wall_s).median;
  run.layers.push_back(
      {"trace.overhead", sweep > 0 ? run.traced_wall_s / sweep : 0.0});
}

/// Prints every metric by name with its unit and returns the run document.
std::string Report(const std::vector<WorkloadRun>& runs, const Options& opt,
                   const std::vector<std::string>& errors, bool with_e2e,
                   bool with_layers) {
  int attempted = 0, failed = 0;
  std::ostringstream doc;
  doc << "{\"tool\": \"declust_bench\", \"seed\": " << opt.seed
      << ", \"smoke\": " << (opt.smoke ? "true" : "false")
      << ",\n \"build\": " << BuildJson() << ",\n \"workloads\": {";
  for (size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRun& run = runs[i];
    const char* name = run.workload->name;
    attempted += run.attempted;
    failed += run.failed;
    const double error_rate =
        run.attempted > 0 ? static_cast<double>(run.failed) / run.attempted
                          : 0;
    doc << (i == 0 ? "\n" : ",\n") << "  " << Quote(name)
        << ": {\"digest\": " << Quote(run.digest) << ", \"attempted\": "
        << run.attempted << ", \"failed\": " << run.failed
        << ", \"error_rate\": " << Number(error_rate);
    // One summarised series, printed and added to the document.
    const auto series = [&](const char* metric, const char* unit,
                            const std::vector<double>& v, bool first) {
      const Summary s = Summarize(v);
      std::printf("%-16s %-28s %12.6g %-5s (q1 %.6g q3 %.6g min %.6g "
                  "max %.6g n %d)\n",
                  name, metric, s.median, unit, s.q1, s.q3, s.min, s.max, s.n);
      doc << (first ? "" : ", ") << Quote(metric) << ": {\"unit\": "
          << Quote(unit) << ", \"median\": " << Number(s.median)
          << ", \"q1\": " << Number(s.q1) << ", \"q3\": " << Number(s.q3)
          << ", \"min\": " << Number(s.min) << ", \"max\": " << Number(s.max)
          << ", \"n\": " << s.n << ", \"samples\": [";
      for (size_t k = 0; k < v.size(); ++k) {
        doc << (k == 0 ? "" : ", ") << Number(v[k]);
      }
      doc << "]}";
    };
    if (with_e2e) {
      doc << ",\n   \"end_to_end\": {";
      const auto samples = Samples(run);
      for (size_t m = 0; m < EndToEndMetrics().size(); ++m) {
        series(EndToEndMetrics()[m].name, EndToEndMetrics()[m].unit,
               samples[m], m == 0);
      }
      std::printf("%-16s %-28s %12.6g %-5s (%d of %d sweeps failed)\n", name,
                  "error_rate", error_rate, "ratio", run.failed,
                  run.attempted);
      // The unscaled wall times behind sweep_s and setup_s.
      doc << "},\n   \"wall\": {";
      series("sweep_wall_s", "s", run.sweep_wall_s, true);
      series("setup_wall_s", "s", run.setup_wall_s, false);
      series("reference_s", "s", run.reference_s, false);
      doc << "}";
    }
    if (with_layers) {
      doc << ",\n   \"per_layer\": {";
      for (size_t m = 0; m < PerLayerMetrics().size(); ++m) {
        const MetricDef& def = PerLayerMetrics()[m];
        const double v = LayerValue(run, def.name);
        std::printf("%-16s %-28s %12.6g %s\n", name, def.name, v, def.unit);
        doc << (m == 0 ? "" : ", ") << Quote(def.name) << ": {\"unit\": "
            << Quote(def.unit) << ", \"value\": " << Number(v) << "}";
      }
      doc << "}";
    }
    doc << "}";
  }
  doc << "},\n \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"errors\": [";
  for (size_t i = 0; i < errors.size(); ++i) {
    doc << (i == 0 ? "" : ", ") << Quote(errors[i]);
  }
  doc << "]}\n";
  return doc.str();
}

/// The one-line summary of a single-workload timed run.
std::string SummaryLine(const WorkloadRun& run, bool correct, bool layers) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
     << ", \"metrics\": {";
  const auto& defs = layers ? PerLayerMetrics() : EndToEndMetrics();
  const auto samples = layers ? std::vector<std::vector<double>>{}
                              : Samples(run);
  for (size_t m = 0; m < defs.size(); ++m) {
    const double v = layers ? LayerValue(run, defs[m].name)
                            : Summarize(samples[m]).median;
    os << (m == 0 ? "" : ", ") << Quote(defs[m].name) << ": {\"value\": "
       << Number(v) << ", \"unit\": " << Quote(defs[m].unit) << "}";
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Modes.

constexpr int kTimedRounds = 8;
/// Fewest rounds a timed run makes, even when they overrun --seconds.
constexpr int kMinRounds = 3;

/// Rounds over every selected workload, round-robin (a discarded warm-up
/// round first when `warmup`), then the traced and micro children.
std::vector<WorkloadRun> RunRounds(Driver& d, std::vector<WorkloadRun> runs,
                                   int timed_rounds, bool warmup) {
  if (warmup) {
    for (WorkloadRun& run : runs) {
      d.Warmup(run);
      d.Sweep(run, false);
    }
  }
  for (int round = 0; round < timed_rounds; ++round) {
    for (WorkloadRun& run : runs) d.Round(run);
  }
  for (WorkloadRun& run : runs) d.Traced(run);
  const auto micro = d.Micro();
  for (WorkloadRun& run : runs) FinishLayers(run, micro);
  return runs;
}

/// Repeats `step` while another one (as long as the last) fits before
/// `deadline`, and at least `min_steps` times.
void RepeatUntil(Clock::time_point deadline, int min_steps, const Driver& d,
                 const std::function<void()>& step) {
  double last_s = 0;
  for (int i = 0; d.errors.empty(); ++i) {
    if (i >= min_steps &&
        Clock::now() + std::chrono::duration<double>(last_s) > deadline) {
      break;
    }
    const auto t0 = Clock::now();
    step();
    last_s = Since(t0);
  }
}

/// One workload for `seconds`. The end-to-end half runs a discarded setup
/// child and then rounds. The traced half runs one sweep, the traced and
/// micro children, and then more sweeps for the trace-overhead denominator.
WorkloadRun RunTimed(Driver& d, WorkloadRun run, int seconds, bool traced) {
  const auto deadline = Clock::now() + std::chrono::seconds(seconds);
  if (!traced) {
    d.Warmup(run);
    RepeatUntil(deadline, kMinRounds, d, [&] { d.Round(run); });
    return run;
  }
  d.Sweep(run, true);
  d.Traced(run);
  const auto micro = d.Micro();
  RepeatUntil(deadline, 0, d, [&] { d.Sweep(run, true); });
  FinishLayers(run, micro);
  return run;
}

/// Self-checks of --smoke on the document it wrote.
Status CheckSmokeDocument(const std::string& text) {
  DECLUST_ASSIGN_OR_RETURN(const Json doc, ParseJson(text));
  DECLUST_ASSIGN_OR_RETURN(const Json spec,
                           ReadJsonFile(DECLUST_BENCH_SPEC));
  const Json* workloads = doc.Get("workloads");
  if (workloads == nullptr || workloads->object.size() != Workloads().size()) {
    return Status::Internal("smoke document lacks a workload");
  }
  for (const auto& [name, w] : workloads->object) {
    for (const char* block : {"end_to_end", "per_layer"}) {
      const Json* listed = spec.Get(block);
      const Json* have = w.Get(block);
      if (listed == nullptr || have == nullptr) {
        return Status::Internal(std::string("missing block ") + block);
      }
      for (const Json& m : listed->array) {
        const Json* v = have->Get(m.String("name"));
        if (v == nullptr) {
          return Status::Internal(name + " lacks metric " + m.String("name"));
        }
        if (v->Get("unit") == nullptr ||
            v->String("unit") != m.String("unit")) {
          return Status::Internal(name + ": unit of " + m.String("name") +
                                  " differs from BENCHMARK.json");
        }
      }
    }
  }
  return Status::OK();
}

/// One side of a comparison for one (workload, metric): its run documents'
/// medians, summarised.
struct Side {
  Summary summary;             ///< of the medians, or of one run's samples
  double spread = 0;           ///< relative uncertainty of summary.median
  std::vector<double> values;  ///< the medians, or one run's samples
};

/// Null when a document lacks the metric. With several documents the spread
/// is the IQR of their medians: the run-to-run spread. With one, it is that
/// run's sample IQR scaled by 1.25/sqrt(n), the IQR of a median of n
/// samples, since the verdict is about medians and single children are far
/// noisier than their median.
std::optional<Side> Collect(const std::vector<Json>& docs,
                            const std::string& workload,
                            const std::string& metric) {
  Side side;
  for (const Json& doc : docs) {
    const Json* w = doc.Get("workloads");
    const Json* run = w != nullptr ? w->Get(workload) : nullptr;
    const Json* e2e = run != nullptr ? run->Get("end_to_end") : nullptr;
    const Json* s = e2e != nullptr ? e2e->Get(metric) : nullptr;
    if (s == nullptr) return std::nullopt;
    if (docs.size() > 1) {
      side.values.push_back(s->Number("median"));
    } else if (const Json* samples = s->Get("samples")) {
      for (const Json& v : samples->array) side.values.push_back(v.number);
    }
  }
  side.summary = Summarize(side.values);
  if (side.summary.n == 0 || side.summary.median <= 0) return std::nullopt;
  side.spread = (side.summary.q3 - side.summary.q1) / side.summary.median;
  if (docs.size() == 1) side.spread *= 1.2533 / std::sqrt(side.summary.n);
  return side;
}

/// `paths` is a comma-separated list of run documents.
Result<std::vector<Json>> ReadDocs(const std::string& paths) {
  std::vector<Json> docs;
  std::stringstream list(paths);
  std::string path;
  while (std::getline(list, path, ',')) {
    DECLUST_ASSIGN_OR_RETURN(Json doc, ReadJsonFile(path));
    docs.push_back(std::move(doc));
  }
  if (docs.empty()) return Status::InvalidArgument("no run documents");
  return docs;
}

int Compare(const std::string& paths_a, const std::string& paths_b) {
  auto spec = ReadJsonFile(DECLUST_BENCH_SPEC);
  auto a = ReadDocs(paths_a);
  auto b = ReadDocs(paths_b);
  const Status st = !spec.ok() ? spec.status()
                    : !a.ok()  ? a.status()
                               : b.status();
  const Json* workloads = a.ok() ? (*a)[0].Get("workloads") : nullptr;
  const Json* metrics = spec.ok() ? spec->Get("end_to_end") : nullptr;
  if (!st.ok() || workloads == nullptr || metrics == nullptr) {
    std::fprintf(stderr, "declust_bench: %s\n",
                 st.ok() ? "not a run document" : st.ToString().c_str());
    return 2;
  }
  std::printf("%-16s %-12s %-32s %-32s %s\n", "workload", "metric",
              "A median [q1, q3]", "B median [q1, q3]", "verdict");
  bool regression = false;
  for (const auto& [name, unused] : workloads->object) {
    for (const Json& m : metrics->array) {
      const std::string metric = m.String("name");
      const double bound = m.Number("bound");
      const bool lower = m.String("better") == "lower";
      const auto sa = Collect(*a, name, metric);
      const auto sb = Collect(*b, name, metric);
      if (!sa || !sb) {
        std::printf("%-16s %-12s missing in a document: worse\n",
                    name.c_str(), metric.c_str());
        regression = true;
        continue;
      }
      const double ma = sa->summary.median, mb = sb->summary.median;
      // Positive: B is worse than A by that share of A.
      const double change = (lower ? mb - ma : ma - mb) / ma;
      // Every B value better than every A value resolves a wide spread.
      const bool b_dominates = lower ? sb->summary.max < sa->summary.min
                                     : sb->summary.min > sa->summary.max;
      const char* verdict = "same";
      if (std::max(sa->spread, sb->spread) > bound) {
        verdict = b_dominates ? "improved" : "unresolved";
      } else if (change > bound) {
        verdict = "worse";
        regression = true;
      } else if (change < -bound) {
        verdict = "improved";
      }
      char col_a[64], col_b[64];
      std::snprintf(col_a, sizeof(col_a), "%.6g [%.6g, %.6g]", ma,
                    sa->summary.q1, sa->summary.q3);
      std::snprintf(col_b, sizeof(col_b), "%.6g [%.6g, %.6g]", mb,
                    sb->summary.q1, sb->summary.q3);
      std::printf("%-16s %-12s %-32s %-32s %s (B %+.1f%% vs A, bound %.0f%%)\n",
                  name.c_str(), metric.c_str(), col_a, col_b, verdict,
                  100 * (mb - ma) / ma, 100 * bound);
    }
    // Failed sweeps over attempted ones, pooled per side.
    const auto rate = [&name](const std::vector<Json>& docs) {
      double failed = 0, attempted = 0;
      for (const Json& doc : docs) {
        const Json* w = doc.Get("workloads");
        const Json* run = w != nullptr ? w->Get(name) : nullptr;
        if (run == nullptr) return 1.0;
        failed += run->Number("failed");
        attempted += run->Number("attempted");
      }
      return attempted > 0 ? failed / attempted : 1.0;
    };
    const double ea = rate(*a), eb = rate(*b);
    const bool worse = eb > 0 && eb > ea;
    regression |= worse;
    std::printf("%-16s %-12s %-32.6g %-32.6g %s\n", name.c_str(), "error_rate",
                ea, eb, worse ? "worse" : "same");
  }
  return regression ? 1 : 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: declust_bench [--seed N] [--out FILE]\n"
               "       declust_bench --workload W --seed N --seconds S "
               "--trace 0|1 [--out FILE]\n"
               "       declust_bench --smoke [--out FILE]\n"
               "       declust_bench --compare A.json[,A2.json...] "
               "B.json[,B2.json...]\n"
               "workloads:");
  for (const Workload& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (const char* unfit = UnfitBuild()) {
    std::fprintf(stderr,
                 "declust_bench: refusing to time %s; build with "
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo or Release and no "
                 "sanitizer\n",
                 unfit);
    return 2;
  }
  Options opt;
  std::string child, compare_a, compare_b;
  ChildArgs child_args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    Status st = Status::OK();
    if (arg == "--seed" && has_value) {
      auto v = ParseInt64(argv[++i], 0);
      st = v.status();
      if (v.ok()) opt.seed = static_cast<uint64_t>(*v);
    } else if (arg == "--seconds" && has_value) {
      auto v = ParseInt(argv[++i], 1, 3600);
      st = v.status();
      if (v.ok()) opt.seconds = *v;
    } else if (arg == "--trace" && has_value) {
      auto v = ParseInt(argv[++i], 0, 1);
      st = v.status();
      if (v.ok()) opt.trace = *v;
    } else if (arg == "--workload" && has_value) {
      opt.workload = FindWorkload(argv[++i]);
      if (opt.workload == nullptr) {
        st = Status::InvalidArgument(std::string("unknown workload ") +
                                     argv[i]);
      }
    } else if (arg == "--out" && has_value) {
      opt.out = argv[++i];
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--compare" && i + 2 < argc) {
      compare_a = argv[++i];
      compare_b = argv[++i];
    } else if (arg == "--child" && has_value) {
      child = argv[++i];
    } else if (arg == "--result" && has_value) {
      child_args.result = argv[++i];
    } else {
      st = Status::InvalidArgument("unknown argument " + arg);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "declust_bench: %s\n", st.ToString().c_str());
      return Usage();
    }
  }
  if (!compare_a.empty()) return Compare(compare_a, compare_b);

  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    std::fprintf(stderr, "declust_bench: cannot resolve /proc/self/exe\n");
    return 2;
  }
  exe[len] = '\0';

  if (!child.empty()) {
    child_args.workload = opt.workload;
    child_args.seed = opt.seed;
    child_args.smoke = opt.smoke;
    const std::string path(exe);
    child_args.work_dir = path.substr(0, path.rfind('/')) + "/runs";
    if (child == "micro") return MicroChild(child_args);
    if (child == "reference") return ReferenceChild();
    if (opt.workload == nullptr) return Usage();
    if (child == "sweep") return SweepChild(child_args);
    if (child == "setup") return SetupChild(child_args);
    return Usage();
  }
  if (opt.trace >= 0 && opt.seconds == 0) return Usage();
  if (opt.seconds > 0 && (opt.workload == nullptr || opt.trace < 0)) {
    return Usage();
  }

  Driver d(exe, opt.seed, opt.smoke);
  std::printf("# declust_bench seed=%llu build=%s\n",
              static_cast<unsigned long long>(opt.seed), BuildJson().c_str());
  std::vector<WorkloadRun> runs;
  for (const Workload& w : Workloads()) {
    if (opt.workload == nullptr || opt.workload == &w) {
      runs.push_back(WorkloadRun{});
      runs.back().workload = &w;
    }
  }
  const bool e2e = opt.trace != 1, layers = opt.trace != 0;
  if (opt.seconds > 0) {
    runs[0] = RunTimed(d, runs[0], opt.seconds, opt.trace == 1);
  } else if (opt.smoke) {
    // One round; the second sweep child checks that two smoke children
    // agree on their digests.
    for (WorkloadRun& run : runs) d.Sweep(run, true);
    runs = RunRounds(d, std::move(runs), 1, /*warmup=*/false);
  } else {
    runs = RunRounds(d, std::move(runs), kTimedRounds, /*warmup=*/true);
  }
  for (const std::string& e : d.errors) {
    std::fprintf(stderr, "declust_bench: FAILED %s\n", e.c_str());
  }
  const std::string doc = Report(runs, opt, d.errors, e2e, layers);
  if (!opt.out.empty()) {
    std::ofstream out(opt.out);
    out << doc;
    if (!out) d.errors.push_back("cannot write " + opt.out);
  }
  if (opt.smoke) {
    const Status st = CheckSmokeDocument(doc);
    if (!st.ok()) d.errors.push_back("smoke check: " + st.ToString());
  }
  bool correct = d.errors.empty();
  for (const WorkloadRun& run : runs) correct &= run.failed == 0;
  if (opt.seconds > 0) {
    std::printf("%s\n", SummaryLine(runs[0], correct, opt.trace == 1).c_str());
  } else {
    std::printf("declust_bench: %s\n", correct ? "OK" : "FAILED");
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace declust::bench

int main(int argc, char** argv) { return declust::bench::Main(argc, argv); }
