// The sweep's metric columns, declared once (DESIGN §18). Each row names a
// SweepPoint metric's CSV column, the group that gates it, the field it
// lives in and how a point's replications aggregate into it. The runner's
// aggregation and PrintCsv are loops over this table. The manifest digest
// key (PointDigestKey) is not derived from it: that format is frozen by
// pinned digests and orders its fields differently.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <variant>
#include <vector>

#include "src/exp/experiment.h"

namespace declust::exp {

/// What gates a column. Base and faults columns are measured in every run,
/// the others only when their subsystem is armed (SweepPoint::has_*).
/// Reports print faults columns only when faults were injected, and the
/// others when the SweepResult::has_* flag is set.
enum class ColumnGroup : uint8_t {
  kBase, kFaults, kComponents, kRecovery, kResize, kOpen, kControl,
};

/// How a point's replications become the point's value.
enum class Aggregate : uint8_t {
  kMean,
  kMeanCi95,     ///< the mean, plus its 95% half-width into Column::ci95
  kRoundedMean,  ///< the mean rounded to the nearest integer (counts)
  /// The mean over the replications that reached the value (>= 0), else
  /// -1: a -1 sentinel would poison the mean.
  kMeanReached,
  /// The largest value: a bound one replication breached must not be
  /// averaged away.
  kMax,
};

/// One slot of a fixed per-phase array.
struct PhaseSlot {
  double (SweepPoint::*array)[4];
  int index;
};

/// Where a column's value lives. A vector field is one CSV column per
/// phase, aggregated element-wise; its name has a '#' for the phase number.
using ColumnField = std::variant<double SweepPoint::*, int64_t SweepPoint::*,
                                 PhaseSlot, std::vector<double> SweepPoint::*>;

struct Column {
  /// The CSV name; null for a metric that aggregates but has no CSV column.
  const char* name;
  ColumnGroup group;
  ColumnField field;
  Aggregate rule = Aggregate::kMean;
  /// kMeanCi95 only: the half-width's CSV name and field, printed right
  /// after the mean.
  const char* ci95_name = nullptr;
  double SweepPoint::*ci95 = nullptr;
  /// Print a negative value as an empty field (a well-defined blank).
  bool blank_if_negative = false;
};

/// Every column, in CSV order.
std::span<const Column> SweepColumns();

/// True when the reports of `result` print `group`.
bool Shown(const SweepResult& result, ColumnGroup group);

/// Aggregates column `c` of a point's replications (all running the same
/// plans) into `out` by the column's rule, in rep order so the result is
/// identical for any job count. Leaves `out` as it is when the
/// replications did not measure the column's group.
void AggregateColumn(const Column& c, std::span<const SweepPoint> reps,
                     SweepPoint* out);

/// Writes column `c`'s CSV names, or its values in `p`, each after a comma;
/// a vector column spans `phases` columns (missing phases print 0).
void WriteCsvNames(std::ostream& os, const Column& c, size_t phases);
void WriteCsvValues(std::ostream& os, const Column& c, const SweepPoint& p,
                    size_t phases);

}  // namespace declust::exp
