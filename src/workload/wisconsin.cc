#include "src/workload/wisconsin.h"

#include <cassert>
#include <utility>
#include <vector>

#include "src/common/stats.h"
#include "src/storage/schema.h"

namespace declust::workload {

using storage::Relation;
using storage::Schema;
using storage::Value;

storage::Relation MakeWisconsin(const WisconsinOptions& options) {
  assert(options.cardinality > 0);
  assert(options.correlation >= 0.0 && options.correlation <= 1.0);

  // unique1 and unique2 are stored; the other eleven attributes are
  // computed from unique1 on read.
  Schema schema({{"unique1"}, {"unique2"}});
  constexpr storage::AttrId u1 = WisconsinAttrs::kUnique1;
  const std::pair<const char*, storage::Derivation> derived[] = {
      {"two", {u1, 2, 1, 0}},
      {"four", {u1, 4, 1, 0}},
      {"ten", {u1, 10, 1, 0}},
      {"twenty", {u1, 20, 1, 0}},
      {"onePercent", {u1, 100, 1, 0}},
      {"tenPercent", {u1, 10, 1, 0}},
      {"twentyPercent", {u1, 5, 1, 0}},
      {"fiftyPercent", {u1, 2, 1, 0}},
      {"unique3", {u1, 0, 1, 0}},
      {"evenOnePercent", {u1, 100, 2, 0}},
      {"oddOnePercent", {u1, 100, 2, 1}},
  };
  for (const auto& [name, rule] : derived) {
    [[maybe_unused]] const Status st = schema.AddDerived(name, rule);
    assert(st.ok());
  }
  Relation rel("wisconsin", std::move(schema));

  RandomStream rng(options.seed);
  const int64_t n = options.cardinality;

  // unique1: a random permutation of 0..n-1.
  RandomStream r1 = rng.Fork(1);
  std::vector<int64_t> unique1 = r1.Permutation(n);

  // unique2 starts identical to unique1 (perfect correlation), then a
  // fraction (1 - correlation) of positions is re-shuffled among itself,
  // decorrelating exactly that share of the relation.
  std::vector<int64_t> unique2 = unique1;
  RandomStream r2 = rng.Fork(2);
  const auto loose =
      static_cast<int64_t>((1.0 - options.correlation) * static_cast<double>(n));
  if (loose > 1) {
    // Choose `loose` positions (a random prefix of a permutation) and
    // permute their unique2 values cyclically shifted by a shuffle.
    std::vector<int64_t> positions = r2.Permutation(n);
    positions.resize(static_cast<size_t>(loose));
    std::vector<int64_t> vals;
    vals.reserve(static_cast<size_t>(loose));
    for (int64_t p : positions) vals.push_back(unique2[static_cast<size_t>(p)]);
    r2.Shuffle(&vals);
    for (size_t i = 0; i < positions.size(); ++i) {
      unique2[static_cast<size_t>(positions[i])] = vals[i];
    }
  }

  std::vector<Value> row(2);
  for (size_t i = 0; i < static_cast<size_t>(n); ++i) {
    row[0] = unique1[i];
    row[1] = unique2[i];
    [[maybe_unused]] const Status st = rel.Append(row);
    assert(st.ok());
  }
  return rel;
}

double MeasuredCorrelation(const storage::Relation& rel) {
  std::vector<double> a, b;
  a.reserve(static_cast<size_t>(rel.cardinality()));
  b.reserve(static_cast<size_t>(rel.cardinality()));
  for (int64_t i = 0; i < rel.cardinality(); ++i) {
    const auto rid = static_cast<storage::RecordId>(i);
    a.push_back(static_cast<double>(rel.value(rid, WisconsinAttrs::kUnique1)));
    b.push_back(static_cast<double>(rel.value(rid, WisconsinAttrs::kUnique2)));
  }
  return PearsonCorrelation(a, b);
}

}  // namespace declust::workload
