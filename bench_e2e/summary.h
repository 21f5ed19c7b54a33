// Order statistics of a sample set, computed the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so the
// benchmark's quartiles match an outside check of the same samples.
#pragma once

#include <algorithm>
#include <vector>

namespace declust::bench {

struct Summary {
  double median = 0, q1 = 0, q3 = 0, min = 0, max = 0;
  int n = 0;
};

inline Summary Summarize(std::vector<double> v) {
  Summary s;
  s.n = static_cast<int>(v.size());
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  const auto quartile = [&](int i) {
    if (v.size() == 1) return v[0];
    const int len = static_cast<int>(v.size());
    const int m = len + 1;
    const int j = std::clamp(i * m / 4, 1, len - 1);
    const int delta = i * m - j * 4;
    return (v[static_cast<size_t>(j - 1)] * (4 - delta) +
            v[static_cast<size_t>(j)] * delta) /
           4;
  };
  s.q1 = quartile(1);
  s.median = quartile(2);
  s.q3 = quartile(3);
  return s;
}

}  // namespace declust::bench
