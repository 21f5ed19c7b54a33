// Differential harness: digest comparison across run variants.
//
// A sweep point's aggregated metrics are digested (FNV-1a over the
// canonical %.17g row rendering, the same digest the run manifest records).
// The differential check re-runs one sweep point under variants that must
// not change results — serial vs parallel workers, audit off vs on, and an
// armed-but-inactive fault plan (no event ever fires) against the same
// catalog with chained backups and no injector — and asserts every variant
// reproduces its baseline's digest bit-for-bit. src/exp/runner owns the execution (RunAuditDifferential);
// this header owns the report so the comparison logic is testable without
// running simulations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace declust::audit {

/// \brief One executed variant of the differential check.
struct VariantDigest {
  std::string label;    ///< e.g. "jobs=1", "jobs=4", "fault-plan-inactive"
  uint64_t digest = 0;  ///< FNV-1a of the point's canonical result row
  /// Index of the variant whose digest this one must reproduce; its own
  /// index makes it a baseline (one that differs from variants[0] by
  /// design, such as a catalog with chained backups on an elastic run).
  size_t baseline = 0;
};

/// \brief Digest comparison of every variant against its baseline.
struct DifferentialReport {
  /// The sweep point that was re-run, e.g. "range/mpl=4".
  std::string point;
  std::vector<VariantDigest> variants;

  /// Variants whose digest differs from their baseline's; empty when
  /// consistent.
  std::vector<std::string> Mismatches() const;
  bool ok() const { return variants.size() <= 1 || Mismatches().empty(); }
  /// e.g. "differential range/mpl=4: 5 variants, every digest matches its
  /// baseline".
  std::string Summary() const;
};

}  // namespace declust::audit
