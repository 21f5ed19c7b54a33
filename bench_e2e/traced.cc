// The traced child: repeats one workload's sweep call by call, the way
// exp::RunThroughputSweep makes the calls, with a span around each public
// call into a layer. It reports per-layer metrics only; every end-to-end number
// comes from untraced children.
//
//   declust_bench_traced --workload W --seed N --result FILE --trace-out FILE
//                        [--smoke]
//
// Spans stay in memory and are written at exit as Chrome trace JSON. Each
// records its name, start, end, parent and the heap counts of count_alloc.cc.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_e2e/heap_count.h"
#include "bench_e2e/inputs.h"
#include "bench_e2e/json.h"
#include "bench_e2e/summary.h"
#include "bench_e2e/workloads.h"
#include "src/audit/oracle.h"
#include "src/common/parse.h"
#include "src/exp/report.h"
#include "src/exp/runner.h"
#include "src/obs/manifest.h"
#include "src/obs/probe.h"
#include "src/workload/wisconsin.h"

namespace declust::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int64_t allocs = 0;      ///< operator new calls inside the span
  int64_t live_bytes = 0;  ///< net heap growth over the span
};

class Tracer {
 public:
  int Open(std::string name) {
    const HeapCounts h = ReadHeap();
    spans_.push_back({std::move(name), Now(), 0,
                      open_.empty() ? -1 : open_.back(), h.allocs,
                      h.live_bytes});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int id) {
    const HeapCounts h = ReadHeap();
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ns = Now();
    s.allocs = h.allocs - s.allocs;
    s.live_bytes = h.live_bytes - s.live_bytes;
    open_.pop_back();
  }

  Status Around(std::string_view name, const std::function<Status()>& body) {
    const int id = Open(std::string(name));
    Status st = body();
    Close(id);
    return st;
  }

  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }
  const std::vector<Span>& spans() const { return spans_; }

  void WriteChromeTrace(std::ostream& os) const {
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      int64_t child_ns = 0;
      for (const Span& c : spans_) {
        if (c.parent == static_cast<int>(i)) child_ns += c.end_ns - c.start_ns;
      }
      char buf[160];
      std::snprintf(buf, sizeof(buf), "\"ts\": %.3f, \"dur\": %.3f",
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      os << (i == 0 ? "\n" : ",\n") << "{\"name\": " << Quote(s.name)
         << ", \"cat\": " << Quote(s.name.substr(0, s.name.find('[')))
         << ", \"ph\": \"X\", " << buf << ", \"pid\": 1, \"tid\": 1"
         << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
         << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
         << ", \"self_ns\": " << (s.end_ns - s.start_ns - child_ns)
         << ", \"allocs\": " << s.allocs
         << ", \"live_bytes\": " << s.live_bytes << "}}";
    }
    os << "\n]}\n";
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// The point as reports render it, from one replication's raw metrics. Only
/// the rendering cost matters here, so no cross-replication aggregation.
exp::SweepPoint ReportPoint(const exp::RepMetrics& m, int level) {
  exp::SweepPoint p;
  p.mpl = level;
  p.throughput_qps = m.throughput_qps;
  p.mean_response_ms = m.mean_response_ms;
  p.p95_response_ms = m.p95_response_ms;
  p.avg_processors_used = m.avg_processors_used;
  p.disk_utilization = m.disk_utilization;
  p.cpu_utilization = m.cpu_utilization;
  p.completed = m.completed;
  p.disk_imbalance = m.disk_imbalance;
  p.io_errors = m.io_errors;
  p.retries = m.retries;
  p.timeouts = m.timeouts;
  p.failovers = m.failovers;
  p.failed_queries = m.failed_queries;
  p.has_recovery = m.has_recovery;
  std::copy(m.phase_qps, m.phase_qps + 4, p.phase_qps);
  std::copy(m.phase_resp_ms, m.phase_resp_ms + 4, p.phase_resp_ms);
  p.fail_ms = m.fail_ms;
  p.rebuild_start_ms = m.rebuild_start_ms;
  p.restored_ms = m.restored_ms;
  p.rebuild_pages = m.rebuild_pages;
  p.has_resize = m.has_resize;
  p.resize_phase_qps = m.resize_phase_qps;
  p.resize_phase_resp_ms = m.resize_phase_resp_ms;
  p.migrations = m.migrations;
  p.pages_migrated = m.pages_migrated;
  p.final_members = m.final_members;
  p.has_open = m.has_open;
  p.offered_qps = m.offered_qps;
  p.arrivals = m.arrivals;
  p.shed = m.shed;
  p.p99_response_ms = m.p99_response_ms;
  return p;
}

/// Per-layer totals of the traced sweep.
struct Layers {
  std::map<std::string, double> sums;
  std::vector<double> point_s;
  double point_allocs = 0;
  double catalog_point_s = 0;  ///< catalog build time x points it serves
  double disk_util_sum = 0;
  double peak_pending = 0;
  double index_bytes = 0;
  double setup_peak_bytes = 0;
};

double Seconds(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) / 1e9;
}

struct PointCompleted {
  std::string label;
  int64_t completed = 0;
};

Status TraceSweep(const exp::ExperimentConfig& config, bool audit,
                  Tracer* tracer, Layers* layers,
                  std::vector<PointCompleted>* points) {
  const Around around = [tracer](std::string_view name,
                                 const std::function<Status()>& body) {
    return tracer->Around(name, body);
  };
  ResetHeapPeak();
  DECLUST_ASSIGN_OR_RETURN(const SweepInputs in,
                           BuildSweepInputs(config, around));
  const bool open = !config.open.empty();
  const size_t num_levels =
      open ? std::max<size_t>(1, config.offered_loads.size())
           : config.mpls.size();
  const int reps = std::max(1, config.repeats);
  const double points_per_strategy =
      static_cast<double>(num_levels) * reps;
  for (size_t s = 0; s < config.strategies.size(); ++s) {
    const int id = tracer->Open("engine.catalog[" + config.strategies[s] + "]");
    auto bytes = BuildCatalog(config, in, s);
    tracer->Close(id);
    DECLUST_RETURN_NOT_OK(bytes.status());
    layers->index_bytes =
        std::max(layers->index_bytes, static_cast<double>(*bytes));
    layers->catalog_point_s += Seconds(tracer->span(id)) * points_per_strategy;
  }
  layers->setup_peak_bytes = static_cast<double>(ReadHeap().peak_bytes);

  exp::SweepResult report;
  report.config = config;
  report.has_recovery = !config.recovery.empty();
  report.has_resize = !config.resize.empty();
  report.has_open = open;
  for (size_t s = 0; s < config.strategies.size(); ++s) {
    exp::StrategyCurve curve;
    curve.strategy = config.strategies[s];
    curve.note = in.parts[s][0]->DiagnosticNote();
    for (size_t m = 0; m < num_levels; ++m) {
      const int level = open ? static_cast<int>(m) : config.mpls[m];
      double completed = 0;
      for (int r = 0; r < reps; ++r) {
        obs::Probe probe;
        audit::Auditor auditor;
        std::string metrics_json;
        const int id = tracer->Open("exp.point[" + config.strategies[s] + "," +
                                    std::to_string(level) + "," +
                                    std::to_string(r) + "]");
        auto res = exp::RunSweepPointRep(
            config, in.relations[0], *in.parts[s][0], in.workload, level, r,
            audit ? &probe : nullptr, &metrics_json,
            audit ? &auditor : nullptr, open ? &in.extras[s] : nullptr);
        tracer->Close(id);
        DECLUST_RETURN_NOT_OK(res.status());
        if (auditor.violations() != 0) {
          return Status::Internal("audit violations in " +
                                  tracer->span(id).name);
        }
        DECLUST_ASSIGN_OR_RETURN(const Json doc, ParseJson(metrics_json));
        const Json* sim = doc.Get("sim");
        const Json* metrics = doc.Get("metrics");
        const Json* counters =
            metrics != nullptr ? metrics->Get("counters") : nullptr;
        if (sim == nullptr || counters == nullptr) {
          return Status::Internal("metrics_json lacks sim or counters");
        }
        const Span& span = tracer->span(id);
        layers->point_s.push_back(Seconds(span));
        layers->point_allocs += static_cast<double>(span.allocs);
        layers->sums["sim.events"] += sim->Number("events_dispatched");
        layers->peak_pending = std::max(
            layers->peak_pending, sim->Number("peak_pending_events"));
        layers->sums["engine.queries"] +=
            counters->Number("query.completed_total");
        layers->sums["audit.checks"] += static_cast<double>(auditor.checks());
        layers->sums["recover.rebuild_pages"] +=
            static_cast<double>(res->rebuild_pages);
        layers->sums["resize.pages_migrated"] +=
            static_cast<double>(res->pages_migrated);
        layers->disk_util_sum += res->disk_utilization;
        completed += static_cast<double>(res->completed);
        if (r == 0) curve.points.push_back(ReportPoint(*res, level));
      }
      // The runner reports the mean across replications, rounded.
      points->push_back({config.strategies[s] + "/" + std::to_string(level),
                         std::llround(completed / reps)});
    }
    report.curves.push_back(std::move(curve));
  }

  if (audit) {
    DECLUST_RETURN_NOT_OK(tracer->Around("audit.oracle", [&]() -> Status {
      audit::OracleOptions opts;
      opts.seed = config.seed;
      for (size_t r = 0; r < in.relations.size(); ++r) {
        std::vector<const decluster::Partitioning*> parts;
        for (const auto& row : in.parts) parts.push_back(row[r].get());
        const audit::OracleReport oracle = audit::RunOracle(
            in.relations[r], parts, in.workload,
            workload::WisconsinAttrs::kUnique1,
            workload::WisconsinAttrs::kUnique2, opts);
        if (!oracle.ok()) return Status::Internal(oracle.Summary());
      }
      return Status::OK();
    }));
  }

  return tracer->Around("exp.report", [&] {
    std::ostringstream sink;
    exp::PrintCsv(sink, report);
    exp::PrintThroughputTable(sink, report);
    obs::Manifest manifest;
    manifest.tool = "declust_bench_traced";
    manifest.seed = config.seed;
    std::string all;
    for (const auto& curve : report.curves) {
      for (const auto& p : curve.points) {
        std::ostringstream row;
        row << curve.strategy << "|" << p.mpl << "|" << p.throughput_qps;
        manifest.points.push_back(
            {curve.strategy + "/" + std::to_string(p.mpl),
             obs::Fnv1a64(row.str())});
        all += row.str() + "\n";
      }
    }
    manifest.result_digest = obs::Fnv1a64(all);
    obs::WriteManifestJson(sink, manifest);
    return Status::OK();
  });
}

int Main(int argc, char** argv) {
  std::string workload_name, result_path, trace_path;
  uint64_t seed = 7;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      auto parsed = ParseInt64(argv[++i], 0);
      if (!parsed.ok()) {
        std::fprintf(stderr, "--seed: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      seed = static_cast<uint64_t>(*parsed);
    } else if (arg == "--result" && has_value) {
      result_path = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      std::fprintf(stderr, "declust_bench_traced: unknown argument %s\n",
                   arg.c_str());
      return 2;
    }
  }
  const Workload* w = FindWorkload(workload_name);
  if (w == nullptr || result_path.empty() || trace_path.empty()) {
    std::fprintf(stderr,
                 "usage: declust_bench_traced --workload W --seed N "
                 "--result FILE --trace-out FILE [--smoke]\n");
    return 2;
  }

  Tracer tracer;
  Layers layers;
  std::vector<PointCompleted> points;
  const int root = tracer.Open("bench.traced");
  const Status st =
      TraceSweep(Config(*w, seed, smoke), w->audit, &tracer, &layers, &points);
  tracer.Close(root);
  if (!st.ok()) {
    std::fprintf(stderr, "declust_bench_traced: %s\n", st.ToString().c_str());
    return 1;
  }

  // Sums of layer spans: the spans directly under the root.
  std::map<std::string, double> span_s;
  double covered_s = 0;
  for (const Span& s : tracer.spans()) {
    if (s.parent != root) continue;
    const std::string kind = s.name.substr(0, s.name.find('['));
    span_s[kind] += Seconds(s);
    if (s.name == "decluster.partition[MAGIC]") {
      span_s["decluster.magic_partition"] += Seconds(s);
    }
    covered_s += Seconds(s);
  }
  const Summary point_s = Summarize(layers.point_s);
  const double total_point_s = span_s["exp.point"];
  const double events = layers.sums["sim.events"];
  const double queries = layers.sums["engine.queries"];
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const std::vector<std::pair<std::string, double>> values = {
      {"sim.events", events},
      {"sim.peak_pending", layers.peak_pending},
      {"sim.host_ns_per_event", per(total_point_s * 1e9, events)},
      {"hw.disk_utilization",
       per(layers.disk_util_sum, static_cast<double>(point_s.n))},
      {"engine.catalog_build_s", span_s["engine.catalog"]},
      {"engine.catalog_share", per(layers.catalog_point_s, total_point_s)},
      {"engine.index_bytes", layers.index_bytes},
      {"engine.queries", queries},
      {"engine.host_us_per_query", per(total_point_s * 1e6, queries)},
      {"workload.relation_s", span_s["workload.relation"]},
      {"decluster.partition_s", span_s["decluster.partition"]},
      {"decluster.magic_partition_s", span_s["decluster.magic_partition"]},
      {"exp.points", static_cast<double>(point_s.n)},
      {"exp.point_s.p50", point_s.median},
      {"exp.point_s.max", point_s.max},
      {"exp.report_s", span_s["exp.report"]},
      {"audit.checks", layers.sums["audit.checks"]},
      {"audit.oracle_s", span_s["audit.oracle"]},
      {"recover.rebuild_pages", layers.sums["recover.rebuild_pages"]},
      {"resize.pages_migrated", layers.sums["resize.pages_migrated"]},
      {"heap.allocs_per_event", per(layers.point_allocs, events)},
      {"heap.setup_mb", layers.setup_peak_bytes / (1024.0 * 1024.0)},
      {"trace.coverage", per(covered_s, Seconds(tracer.span(root)))},
  };

  std::ofstream trace(trace_path);
  tracer.WriteChromeTrace(trace);
  std::ofstream out(result_path);
  out << "{\"layers\": {";
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i == 0 ? "" : ", ") << Quote(values[i].first) << ": "
        << Number(values[i].second);
  }
  out << "},\n \"points\": [";
  for (size_t i = 0; i < points.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "{\"label\": " << Quote(points[i].label)
        << ", \"completed\": " << points[i].completed << "}";
  }
  out << "]}\n";
  trace.close();
  out.close();
  return trace && out ? 0 : 1;
}

}  // namespace
}  // namespace declust::bench

int main(int argc, char** argv) { return declust::bench::Main(argc, argv); }
