// Reporting of sweep results: the figure-style throughput table and the
// CSV, plus one block per armed plan (recovery, resize, control). A plan's
// block prints only when the sweep ran with that plan, so reports of runs
// without it keep their exact earlier format.
#pragma once

#include <iosfwd>
#include <string>

#include "src/exp/experiment.h"

namespace declust::exp {

/// Prints a figure-style table: one row per MPL, one throughput column per
/// strategy, plus per-strategy notes (grid shape, avg processors).
void PrintThroughputTable(std::ostream& os, const SweepResult& result);

/// Prints every point as a CSV row: figure, strategy, correlation and MPL,
/// then each column of the table in src/exp/columns.h whose group the sweep
/// measured.
void PrintCsv(std::ostream& os, const SweepResult& result);

/// Print one armed plan's block, per strategy and level (no-op when the
/// sweep ran without the plan): recovery's phase boundaries, rebuild counts
/// and per-phase throughput / response; resize's migration counts and
/// per-phase throughput / response; the controller's counts and rep 0's
/// decision timeline.
void PrintRecoveryReport(std::ostream& os, const SweepResult& result);
void PrintResizeReport(std::ostream& os, const SweepResult& result);
void PrintControlReport(std::ostream& os, const SweepResult& result);

/// One-line comparison of two strategies at the highest level, e.g.
/// "MAGIC/BERD throughput ratio at MPL 64: 1.45".
std::string RatioSummary(const SweepResult& result, const std::string& a,
                         const std::string& b);

}  // namespace declust::exp
