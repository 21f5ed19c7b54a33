#include "src/exp/columns.h"

#include <cmath>
#include <ostream>
#include <string_view>

#include "src/common/stats.h"

namespace declust::exp {

namespace {

using P = SweepPoint;
using enum ColumnGroup;
using enum Aggregate;

const Column kColumns[] = {
    // Base: every run.
    {"throughput_qps", kBase, &P::throughput_qps, kMeanCi95,
     "throughput_ci95", &P::throughput_ci95},
    {"mean_response_ms", kBase, &P::mean_response_ms, kMeanCi95,
     "mean_response_ci95", &P::mean_response_ci95},
    {"p95_response_ms", kBase, &P::p95_response_ms},
    {"avg_processors", kBase, &P::avg_processors_used},
    {"disk_utilization", kBase, &P::disk_utilization},
    {"cpu_utilization", kBase, &P::cpu_utilization},
    {"completed", kBase, &P::completed, kRoundedMean},
    // Faults: measured in every run, printed when faults were injected.
    {"disk_imbalance", kFaults, &P::disk_imbalance},
    {"io_errors", kFaults, &P::io_errors, kRoundedMean},
    {"retries", kFaults, &P::retries, kRoundedMean},
    {"timeouts", kFaults, &P::timeouts, kRoundedMean},
    {"failovers", kFaults, &P::failovers, kRoundedMean},
    {"failed_queries", kFaults, &P::failed_queries, kRoundedMean},
    // Components: a probe was armed.
    {"disk_wait_ms", kComponents, &P::comp_disk_wait_ms},
    {"disk_service_ms", kComponents, &P::comp_disk_service_ms},
    {"cpu_ms", kComponents, &P::comp_cpu_ms},
    {"network_ms", kComponents, &P::comp_network_ms},
    {"queue_ms", kComponents, &P::comp_queue_ms},
    {"unattributed_ms", kComponents, &P::comp_unattributed_ms},
    // Recovery.
    {"fail_ms", kRecovery, &P::fail_ms, kMeanReached},
    {"rebuild_start_ms", kRecovery, &P::rebuild_start_ms, kMeanReached},
    {"restored_ms", kRecovery, &P::restored_ms, kMeanReached},
    {"rebuild_pages", kRecovery, &P::rebuild_pages, kRoundedMean},
    // The rebuild counts reach the digest and the text report, not the CSV.
    {nullptr, kRecovery, &P::rebuilds_completed, kRoundedMean},
    {nullptr, kRecovery, &P::rebuilds_aborted, kRoundedMean},
    {"normal_qps", kRecovery, PhaseSlot{&P::phase_qps, 0}},
    {"degraded_qps", kRecovery, PhaseSlot{&P::phase_qps, 1}},
    {"rebuilding_qps", kRecovery, PhaseSlot{&P::phase_qps, 2}},
    {"restored_qps", kRecovery, PhaseSlot{&P::phase_qps, 3}},
    {"normal_resp_ms", kRecovery, PhaseSlot{&P::phase_resp_ms, 0}},
    {"degraded_resp_ms", kRecovery, PhaseSlot{&P::phase_resp_ms, 1}},
    {"rebuilding_resp_ms", kRecovery, PhaseSlot{&P::phase_resp_ms, 2}},
    {"restored_resp_ms", kRecovery, PhaseSlot{&P::phase_resp_ms, 3}},
    // Resize.
    {"migrations", kResize, &P::migrations, kRoundedMean},
    {"migrations_aborted", kResize, &P::migrations_aborted, kRoundedMean},
    {"pages_migrated", kResize, &P::pages_migrated, kRoundedMean},
    {"migration_redirects", kResize, &P::migration_redirects, kRoundedMean},
    {"rebalance_moves", kResize, &P::rebalance_moves, kRoundedMean},
    {"final_members", kResize, &P::final_members, kRoundedMean},
    {"rz_phase#_qps", kResize, &P::resize_phase_qps},
    {"rz_phase#_resp_ms", kResize, &P::resize_phase_resp_ms},
    // Open.
    {"offered_qps", kOpen, &P::offered_qps},
    {"arrivals", kOpen, &P::arrivals, kRoundedMean},
    {"shed", kOpen, &P::shed, kRoundedMean},
    {"p99_response_ms", kOpen, &P::p99_response_ms, kMeanReached,
     nullptr, nullptr, /*blank_if_negative=*/true},
    // Control.
    {"ctl_windows", kControl, &P::ctl_windows, kRoundedMean},
    {"ctl_slo_violations", kControl, &P::ctl_slo_violations, kRoundedMean},
    {"ctl_scale_outs", kControl, &P::ctl_scale_outs, kRoundedMean},
    {"ctl_scale_ins", kControl, &P::ctl_scale_ins, kRoundedMean},
    {"ctl_pauses", kControl, &P::ctl_pauses, kRoundedMean},
    {"ctl_resumes", kControl, &P::ctl_resumes, kRoundedMean},
    {"ctl_tightens", kControl, &P::ctl_tightens, kRoundedMean},
    {"ctl_relaxes", kControl, &P::ctl_relaxes, kRoundedMean},
    {"ctl_shed", kControl, &P::ctl_shed, kRoundedMean},
    {"ctl_migrations", kControl, &P::ctl_migrations, kRoundedMean},
    {"ctl_pages_migrated", kControl, &P::ctl_pages_migrated, kRoundedMean},
    {"ctl_final_members", kControl, &P::ctl_final_members, kRoundedMean},
    {"ctl_peak_concurrent", kControl, &P::ctl_peak_concurrent, kMax},
    {"ctl_budget_throttled", kControl, &P::ctl_budget_throttled, kRoundedMean},
    {"ctl_budget_max_delay_ms", kControl, &P::ctl_budget_max_delay_ms, kMax},
};

using PhaseVector = std::vector<double> SweepPoint::*;

/// A scalar column's value; counts convert to double exactly.
double Read(const SweepPoint& p, const ColumnField& field) {
  if (const auto* f = std::get_if<double P::*>(&field)) return p.*(*f);
  if (const auto* f = std::get_if<int64_t P::*>(&field)) {
    return static_cast<double>(p.*(*f));
  }
  const PhaseSlot& slot = std::get<PhaseSlot>(field);
  return (p.*slot.array)[slot.index];
}

void Write(SweepPoint* p, const ColumnField& field, double v) {
  if (const auto* f = std::get_if<double P::*>(&field)) {
    p->*(*f) = v;
  } else if (const auto* f = std::get_if<int64_t P::*>(&field)) {
    p->*(*f) = static_cast<int64_t>(v);
  } else {
    const PhaseSlot& slot = std::get<PhaseSlot>(field);
    (p->*slot.array)[slot.index] = v;
  }
}

/// True when `p` measured `group`.
bool Measured(const SweepPoint& p, ColumnGroup group) {
  switch (group) {
    case kBase:
    case kFaults: return true;
    case kComponents: return p.has_components;
    case kRecovery: return p.has_recovery;
    case kResize: return p.has_resize;
    case kOpen: return p.has_open;
    case kControl: return p.has_control;
  }
  return false;
}

}  // namespace

std::span<const Column> SweepColumns() { return kColumns; }

bool Shown(const SweepResult& result, ColumnGroup group) {
  switch (group) {
    case kBase: return true;
    case kFaults: return !result.config.faults.empty();
    case kComponents: return result.has_components;
    case kRecovery: return result.has_recovery;
    case kResize: return result.has_resize;
    case kOpen: return result.has_open;
    case kControl: return result.has_control;
  }
  return false;
}

void AggregateColumn(const Column& c, std::span<const SweepPoint> reps,
                     SweepPoint* out) {
  // Every replication of a point runs the same plans, so rep 0 tells
  // whether the point measured the column's group.
  if (!Measured(reps.front(), c.group)) return;
  if (const auto* vec = std::get_if<PhaseVector>(&c.field)) {
    std::vector<Accumulator> phases;
    for (const SweepPoint& rep : reps) {
      const std::vector<double>& v = rep.*(*vec);
      if (phases.size() < v.size()) phases.resize(v.size());
      for (size_t i = 0; i < v.size(); ++i) phases[i].Add(v[i]);
    }
    std::vector<double>& dst = out->*(*vec);
    dst.resize(phases.size());
    for (size_t i = 0; i < phases.size(); ++i) dst[i] = phases[i].mean();
    return;
  }
  Accumulator acc;
  for (const SweepPoint& rep : reps) {
    const double v = Read(rep, c.field);
    if (c.rule != kMeanReached || v >= 0) acc.Add(v);
  }
  double value = acc.mean();
  switch (c.rule) {
    case kMean: break;
    case kMeanCi95: out->*c.ci95 = acc.ConfidenceHalfWidth95(); break;
    case kRoundedMean: value = std::round(value); break;
    case kMeanReached: value = acc.empty() ? -1 : value; break;
    case kMax: value = acc.max(); break;
  }
  Write(out, c.field, value);
}

void WriteCsvNames(std::ostream& os, const Column& c, size_t phases) {
  if (c.name == nullptr) return;
  if (std::holds_alternative<PhaseVector>(c.field)) {
    const std::string_view name = c.name;
    const size_t hash = name.find('#');
    for (size_t i = 0; i < phases; ++i) {
      os << ',' << name.substr(0, hash) << i << name.substr(hash + 1);
    }
    return;
  }
  os << ',' << c.name;
  if (c.ci95_name != nullptr) os << ',' << c.ci95_name;
}

void WriteCsvValues(std::ostream& os, const Column& c, const SweepPoint& p,
                    size_t phases) {
  if (c.name == nullptr) return;
  if (const auto* vec = std::get_if<PhaseVector>(&c.field)) {
    const std::vector<double>& v = p.*(*vec);
    for (size_t i = 0; i < phases; ++i) {
      os << ',' << (i < v.size() ? v[i] : 0.0);
    }
    return;
  }
  os << ',';
  if (const auto* f = std::get_if<int64_t P::*>(&c.field)) {
    os << p.*(*f);  // counts print as integers
  } else if (const double v = Read(p, c.field);
             !(c.blank_if_negative && v < 0)) {
    os << v;
  }
  if (c.ci95 != nullptr) os << ',' << p.*c.ci95;
}

}  // namespace declust::exp
