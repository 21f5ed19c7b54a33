// Minimal JSON reader and writer helpers for the end-to-end benchmark: it
// reads BENCHMARK.json, child result files, manifests, Chrome traces and the
// run documents that --compare diffs.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"

namespace declust::bench {

/// \brief A parsed JSON value. Objects keep their key order.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// The member `key` of an object, or null when absent or not an object.
  const Json* Get(std::string_view key) const;
  /// The number at `key`, or `fallback` when absent or not a number.
  double Number(std::string_view key, double fallback = 0) const;
  /// The string at `key`, or "" when absent or not a string.
  std::string String(std::string_view key) const;
};

Result<Json> ParseJson(std::string_view text);
Result<Json> ReadJsonFile(const std::string& path);

/// `s` as a quoted JSON string token.
std::string Quote(std::string_view s);
/// `v` as a JSON number token with every significant digit (null if not
/// finite).
std::string Number(double v);

}  // namespace declust::bench
