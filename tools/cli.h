// Flag helpers shared by run_experiment and audit_sweep. Each tool defines
// Usage(); every helper that rejects its input prints the offending flag,
// the usage text, and exits 2.
#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/parse.h"
#include "src/exp/experiment.h"

namespace declust::tools {

/// Prints the tool's usage text to stderr.
void Usage();

inline std::vector<std::string> SplitCsv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Parses a numeric flag value or exits 2 with the offending flag named —
/// the atoi-family's silent garbage-to-0 conversion used to let
/// "--mpls 1,x" run a sweep at MPL 0.
inline int64_t RequireInt64(const char* flag, std::string_view value,
                            int64_t min, int64_t max) {
  const auto parsed = ParseInt64(value, min, max);
  if (!parsed.ok()) {
    std::cerr << flag << ": " << parsed.status().message() << "\n\n";
    Usage();
    std::exit(2);
  }
  return *parsed;
}

inline int RequireInt(const char* flag, std::string_view value, int min,
                      int max) {
  return static_cast<int>(RequireInt64(flag, value, min, max));
}

inline double RequireDouble(const char* flag, std::string_view value,
                            double min, double max) {
  const auto parsed = ParseDouble(value, min, max);
  if (!parsed.ok()) {
    std::cerr << flag << ": " << parsed.status().message() << "\n\n";
    Usage();
    std::exit(2);
  }
  return *parsed;
}

/// Parses --offered's comma list of arrival rates (q/s), each in
/// [1e-9, 1e9], or exits 2.
inline std::vector<double> RequireOfferedLoads(const std::string& value) {
  std::vector<double> loads;
  for (const auto& l : SplitCsv(value)) {
    loads.push_back(RequireDouble("--offered", l, 1e-9, 1e9));
  }
  return loads;
}

/// Sets the query mix named by --mix; false for an unknown name.
inline bool ParseMix(const std::string& name, exp::ExperimentConfig* cfg) {
  using workload::ResourceClass;
  if (name == "low-low") {
    cfg->qa = ResourceClass::kLow;
    cfg->qb = ResourceClass::kLow;
  } else if (name == "low-moderate") {
    cfg->qa = ResourceClass::kLow;
    cfg->qb = ResourceClass::kModerate;
  } else if (name == "moderate-low") {
    cfg->qa = ResourceClass::kModerate;
    cfg->qb = ResourceClass::kLow;
  } else if (name == "moderate-moderate") {
    cfg->qa = ResourceClass::kModerate;
    cfg->qb = ResourceClass::kModerate;
  } else {
    return false;
  }
  cfg->name = name;
  return true;
}

/// Validates the assembled config before any work starts (a fault spec
/// naming a node past --processors, say, may come in either flag order),
/// so every malformed input — each plan spec included — exits 2 with its
/// message instead of surfacing as a failed experiment.
inline void RequireValidConfig(const exp::ExperimentConfig& cfg) {
  const Status st = exp::ValidateExperimentConfig(cfg);
  if (!st.ok()) {
    std::cerr << st.message() << "\n\n";
    Usage();
    std::exit(2);
  }
}

}  // namespace declust::tools
