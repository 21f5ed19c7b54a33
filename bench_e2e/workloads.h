// The benchmark's named workloads and the metric tables it reports. Later
// changes refer to workloads and metrics by these names; BENCHMARK.json at
// the repository root lists the same names (the smoke test checks that).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/exp/experiment.h"

namespace declust::bench {

/// \brief One workload: a fixed sweep run through the public path.
struct Workload {
  const char* name;
  /// RunnerOptions::audit for its sweep (live invariants plus the oracle).
  bool audit;
  /// The sweep config; `smoke` shrinks it for the smoke test.
  exp::ExperimentConfig (*config)(bool smoke);
  /// Manifest result_digests pinned for the default seed 7 and the held-out
  /// seed 11.
  const char* pin_seed7;
  const char* pin_seed11;
};

const std::vector<Workload>& Workloads();
/// The workload named `name`, or null.
const Workload* FindWorkload(std::string_view name);
/// `w`'s config with `seed` as ExperimentConfig::seed, the only thing the
/// seed sets.
exp::ExperimentConfig Config(const Workload& w, uint64_t seed, bool smoke);
/// The pinned digest for `seed`, or "" when that seed has no pin (smoke
/// configs have none).
std::string PinnedDigest(const Workload& w, uint64_t seed, bool smoke);

/// \brief A metric name with its unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, measured in untraced children.
const std::vector<MetricDef>& EndToEndMetrics();
/// Per-layer metrics, from the traced child, the micro child and the trace
/// overhead.
const std::vector<MetricDef>& PerLayerMetrics();

}  // namespace declust::bench
