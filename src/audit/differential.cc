#include "src/audit/differential.h"

#include <cinttypes>
#include <cstdio>

namespace declust::audit {

std::vector<std::string> DifferentialReport::Mismatches() const {
  std::vector<std::string> out;
  for (size_t i = 0; i < variants.size(); ++i) {
    const VariantDigest& v = variants[i];
    if (v.baseline == i) continue;
    const VariantDigest& base = variants.at(v.baseline);
    if (v.digest == base.digest) continue;
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "%s: digest %016" PRIx64 " != %s baseline %016" PRIx64,
                  v.label.c_str(), v.digest, base.label.c_str(), base.digest);
    out.emplace_back(buf);
  }
  return out;
}

std::string DifferentialReport::Summary() const {
  const size_t bad = Mismatches().size();
  char buf[160];
  if (bad == 0) {
    std::snprintf(buf, sizeof(buf),
                  "differential %s: %zu variants, every digest matches its "
                  "baseline",
                  point.c_str(), variants.size());
  } else {
    std::snprintf(buf, sizeof(buf),
                  "differential %s: %zu of %zu variants diverge from their "
                  "baseline",
                  point.c_str(), bad, variants.size());
  }
  return std::string(buf);
}

}  // namespace declust::audit
