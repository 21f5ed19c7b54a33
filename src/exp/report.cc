#include "src/exp/report.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/columns.h"

namespace declust::exp {

namespace {

/// How reports name the sweep level of `p`: "MPL 16" in a closed sweep,
/// "120.0 q/s offered" in an open one, whose levels are offered loads
/// (SweepPoint::mpl is then only the level's index).
std::string LevelLabel(const SweepResult& result, const SweepPoint& p) {
  if (!result.has_open) return "MPL " + std::to_string(p.mpl);
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << p.offered_qps << " q/s offered";
  return os.str();
}

/// Phase name of a recover::RecoveryCoordinator::Phase index.
const char* RecoveryPhaseName(int phase) {
  switch (phase) {
    case 0: return "normal";
    case 1: return "degraded";
    case 2: return "rebuilding";
    case 3: return "restored";
    default: return "?";
  }
}

/// Name of resize reporting phase `phase` out of `total` (2K+1 for K
/// membership events): even phases are the steady windows, odd phases the
/// migration windows of each event.
std::string ResizePhaseName(int phase, int total) {
  if (phase < 0 || phase >= total) return "?";
  if (phase % 2 == 0) return "steady" + std::to_string(phase / 2);
  return "migrate" + std::to_string(phase / 2);
}

}  // namespace

void PrintThroughputTable(std::ostream& os, const SweepResult& result) {
  os << "== " << result.config.name << " ==\n";
  os << "workload: QA/QB mix over " << result.config.cardinality
     << " tuples, " << result.config.num_processors << " processors, "
     << (result.config.correlation >= 0.5 ? "HIGH" : "LOW")
     << " attribute correlation\n";
  for (const auto& curve : result.curves) {
    if (!curve.note.empty()) {
      os << "  " << curve.strategy << ": " << curve.note;
      if (!curve.points.empty()) {
        os << ", avg processors/query "
           << std::fixed << std::setprecision(2)
           << curve.points.back().avg_processors_used;
      }
      os << "\n";
    }
  }

  // Open sweeps are indexed by offered load (q/s), closed sweeps by MPL;
  // the closed header/rows stay byte-identical to the pre-open format.
  os << std::setw(6) << (result.has_open ? "load" : "MPL");
  for (const auto& curve : result.curves) {
    os << std::setw(12) << (curve.strategy + " q/s");
  }
  for (const auto& curve : result.curves) {
    os << std::setw(14) << (curve.strategy + " ms");
  }
  os << "\n";

  const size_t rows =
      result.curves.empty() ? 0 : result.curves[0].points.size();
  for (size_t r = 0; r < rows; ++r) {
    if (result.has_open) {
      os << std::setw(6) << std::fixed << std::setprecision(0)
         << result.curves[0].points[r].offered_qps;
    } else {
      os << std::setw(6) << result.curves[0].points[r].mpl;
    }
    os << std::fixed << std::setprecision(1);
    for (const auto& curve : result.curves) {
      os << std::setw(12) << curve.points[r].throughput_qps;
    }
    for (const auto& curve : result.curves) {
      os << std::setw(14) << curve.points[r].mean_response_ms;
    }
    os << "\n";
  }

  // Component breakdown at the top MPL: only present when the sweep ran
  // with probes, so the default table stays byte-identical.
  if (result.has_components) {
    os << "components (mean ms/query @ top MPL):\n";
    for (const auto& curve : result.curves) {
      if (curve.points.empty()) continue;
      const SweepPoint& p = curve.points.back();
      os << "  " << curve.strategy << ": disk wait "
         << std::fixed << std::setprecision(1) << p.comp_disk_wait_ms
         << ", disk service " << p.comp_disk_service_ms << ", cpu "
         << p.comp_cpu_ms << ", network " << p.comp_network_ms << ", queue "
         << p.comp_queue_ms << ", unattributed " << p.comp_unattributed_ms
         << "\n";
    }
  }

  // Open-system summary at the top offered load: arrivals vs completions
  // and the shed count make saturation visible (throughput flattens while
  // arrivals keep climbing). p99 of an idle window prints as a blank.
  if (result.has_open) {
    os << "open system: " << result.config.open << "\n";
    for (const auto& curve : result.curves) {
      if (curve.points.empty()) continue;
      const SweepPoint& p = curve.points.back();
      os << "  " << curve.strategy << " @ " << LevelLabel(result, p)
         << ": arrivals " << p.arrivals << ", shed " << p.shed << ", p99 ";
      if (p.p99_response_ms >= 0) {
        os << std::fixed << std::setprecision(1) << p.p99_response_ms << " ms";
      } else {
        os << "-";
      }
      os << "\n";
    }
  }

  // Fault-handling summary: only present when faults were injected, so the
  // failure-free table stays byte-identical to the pre-fault format.
  if (!result.config.faults.empty()) {
    os << "faults: " << result.config.faults << "\n";
    for (const auto& curve : result.curves) {
      if (curve.points.empty()) continue;
      const SweepPoint& p = curve.points.back();
      os << "  " << curve.strategy << " @ " << LevelLabel(result, p)
         << ": imbalance " << std::fixed << std::setprecision(2)
         << p.disk_imbalance << ", io_errors " << p.io_errors
         << ", retries " << p.retries << ", failovers " << p.failovers
         << ", timeouts " << p.timeouts << ", failed " << p.failed_queries
         << "\n";
    }
  }
}

void PrintCsv(std::ostream& os, const SweepResult& result) {
  // A group's columns appear only when the sweep measured it, so a run
  // without faults, probes or plans keeps the plain CSV format.
  std::vector<const Column*> columns;
  for (const Column& c : SweepColumns()) {
    if (Shown(result, c.group)) columns.push_back(&c);
  }
  // A resize plan with K membership events yields 2K+1 phases; every point
  // of a sweep shares the plan, so the widest point fixes the column count.
  size_t rz_phases = 0;
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      rz_phases = std::max(rz_phases, p.resize_phase_qps.size());
    }
  }
  os << "figure,strategy,correlation,mpl";
  for (const Column* c : columns) WriteCsvNames(os, *c, rz_phases);
  os << "\n";
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      os << result.config.name << "," << curve.strategy << ","
         << result.config.correlation << "," << p.mpl;
      for (const Column* c : columns) WriteCsvValues(os, *c, p, rz_phases);
      os << "\n";
    }
  }
}

std::string RatioSummary(const SweepResult& result, const std::string& a,
                         const std::string& b) {
  const StrategyCurve* ca = nullptr;
  const StrategyCurve* cb = nullptr;
  for (const auto& curve : result.curves) {
    if (curve.strategy == a) ca = &curve;
    if (curve.strategy == b) cb = &curve;
  }
  std::ostringstream os;
  if (ca == nullptr || cb == nullptr || ca->points.empty() ||
      cb->points.empty() || cb->points.back().throughput_qps <= 0) {
    os << a << "/" << b << " ratio unavailable";
    return os.str();
  }
  os << a << "/" << b << " throughput ratio at "
     << LevelLabel(result, ca->points.back()) << ": " << std::fixed
     << std::setprecision(2)
     << ca->points.back().throughput_qps / cb->points.back().throughput_qps;
  return os.str();
}

void PrintRecoveryReport(std::ostream& os, const SweepResult& result) {
  if (!result.has_recovery) return;
  os << "recovery: " << result.config.recovery << "\n";
  const auto print_ms = [&os](double v) {
    if (v < 0) {
      os << "never";
    } else {
      os << std::fixed << std::setprecision(1) << v << "ms";
    }
  };
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      os << "  " << curve.strategy << " @ " << LevelLabel(result, p)
         << ": fail ";
      print_ms(p.fail_ms);
      os << ", rebuild start ";
      print_ms(p.rebuild_start_ms);
      os << ", restored ";
      print_ms(p.restored_ms);
      os << ", pages " << p.rebuild_pages << ", rebuilds "
         << p.rebuilds_completed << " ok / " << p.rebuilds_aborted
         << " aborted\n";
      for (int ph = 0; ph < 4; ++ph) {
        os << "    " << std::setw(10) << RecoveryPhaseName(ph) << ": "
           << std::fixed << std::setprecision(1) << std::setw(8)
           << p.phase_qps[ph] << " q/s, " << std::setw(8)
           << p.phase_resp_ms[ph] << " ms mean response\n";
      }
    }
  }
}

void PrintResizeReport(std::ostream& os, const SweepResult& result) {
  if (!result.has_resize) return;
  os << "resize: " << result.config.resize << "\n";
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      os << "  " << curve.strategy << " @ " << LevelLabel(result, p) << ": "
         << p.migrations << " migrations (" << p.migrations_aborted
         << " aborted), " << p.pages_migrated << " pages, "
         << p.migration_redirects << " redirects, " << p.rebalance_moves
         << " rebalance moves, " << p.final_members << " final members\n";
      const int total = static_cast<int>(p.resize_phase_qps.size());
      for (int ph = 0; ph < total; ++ph) {
        os << "    " << std::setw(10) << ResizePhaseName(ph, total) << ": "
           << std::fixed << std::setprecision(1) << std::setw(8)
           << p.resize_phase_qps[static_cast<size_t>(ph)] << " q/s, "
           << std::setw(8)
           << p.resize_phase_resp_ms[static_cast<size_t>(ph)]
           << " ms mean response\n";
      }
    }
  }
}

void PrintControlReport(std::ostream& os, const SweepResult& result) {
  if (!result.has_control) return;
  os << "control: " << result.config.control << "\n";
  for (const auto& curve : result.curves) {
    for (const auto& p : curve.points) {
      os << "  " << curve.strategy << " @ " << LevelLabel(result, p) << ": "
         << p.ctl_windows << " windows (" << p.ctl_slo_violations
         << " over SLO), scale +" << p.ctl_scale_outs << "/-"
         << p.ctl_scale_ins << " to " << p.ctl_final_members
         << " members, pause/resume " << p.ctl_pauses << "/"
         << p.ctl_resumes << ", cap -" << p.ctl_tightens << "/+"
         << p.ctl_relaxes << " (" << p.ctl_shed
         << " controller sheds), " << p.ctl_migrations
         << " migrations / " << p.ctl_pages_migrated << " pages (peak "
         << p.ctl_peak_concurrent << " concurrent, "
         << p.ctl_budget_throttled << " budget-throttled, max budget delay "
         << std::fixed << std::setprecision(1) << p.ctl_budget_max_delay_ms
         << " ms)\n";
      // Decisions carry rep 0's timeline (see SweepPoint::ctl_decisions):
      // every actuation in simulated-time order with the observation that
      // triggered it and the state it left behind.
      for (const auto& d : p.ctl_decisions) {
        os << "    " << std::fixed << std::setprecision(0) << std::setw(8)
           << d.at_ms << " ms  " << std::setw(10) << std::left << d.kind
           << std::right << " observed " << std::fixed
           << std::setprecision(1) << std::setw(8) << d.observed_ms
           << " ms -> " << d.members << " members";
        if (d.cap >= 0) os << ", cap " << d.cap;
        os << "\n";
      }
      if (p.ctl_decisions.empty()) {
        os << "    (no actuations: the SLO held without intervention)\n";
      }
    }
  }
}

}  // namespace declust::exp
