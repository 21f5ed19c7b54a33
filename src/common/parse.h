// Validated number parsing for CLI flags and environment variables.
//
// The std::atoi/atof family silently turns garbage into 0 ("--mpls 1,x,64"
// used to inject MPL 0 into a sweep; "DECLUST_JOBS=abc" used to mean 0
// jobs). These parsers return Result<T> instead: the whole input must be a
// number, it must fit the target type, and it must lie inside the caller's
// closed range — anything else is an InvalidArgument naming the offending
// text, so tools can fail fast with a usage message. The plan specs
// (--faults, --recovery, --resize, --open, --control) build on these in
// src/common/spec.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/result.h"

namespace declust {

/// Parses a base-10 integer; the entire string must be consumed. Rejects
/// empty input, trailing junk, overflow, and values outside [min, max].
Result<int64_t> ParseInt64(std::string_view s,
                           int64_t min = INT64_MIN,
                           int64_t max = INT64_MAX);

/// ParseInt64 narrowed to int (range intersected with int's limits).
Result<int> ParseInt(std::string_view s, int min, int max);

/// Parses a finite double; the entire string must be consumed. Rejects
/// empty input, trailing junk, NaN/Inf, and values outside [min, max].
Result<double> ParseDouble(std::string_view s, double min, double max);

}  // namespace declust
