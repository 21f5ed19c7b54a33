// Figures 1-3 of the paper, executed: BERD on the six-tuple relation
// R(A, B) — range partition on A, the auxiliary relation IndexB, its range
// partitioning on B, and the two-phase routing of queries on either
// attribute.
#include <iostream>

#include "src/decluster/berd.h"

int main() {
  using namespace declust;  // NOLINT(build/namespaces)

  // Figure 1's relation R with two attributes and six tuples.
  storage::Relation r("R", storage::Schema({{"A"}, {"B"}}));
  (void)r.Append({1, 103});
  (void)r.Append({50, 10});
  (void)r.Append({105, 250});
  (void)r.Append({113, 15});
  (void)r.Append({250, 212});
  (void)r.Append({270, 156});

  const int kProcessors = 3;
  auto berd = decluster::BerdPartitioning::Create(r, {0, 1}, kProcessors);
  if (!berd.ok()) {
    std::cerr << berd.status().ToString() << "\n";
    return 1;
  }

  std::cout << "Figure 1: range partition R on attribute A over "
            << kProcessors << " processors\n";
  const decluster::NodeGroups groups = (*berd)->GroupByNode();
  for (int node = 0; node < kProcessors; ++node) {
    std::cout << "  processor " << (node + 1) << ":";
    for (auto rid : groups.node(node)) {
      std::cout << " (A=" << r.value(rid, 0) << ",B=" << r.value(rid, 1)
                << ")";
    }
    std::cout << "\n";
  }

  std::cout << "\nFigures 2-3: auxiliary relation IndexB, range partitioned"
               " on B\n";
  for (int node = 0; node < kProcessors; ++node) {
    const auto cost = (*berd)->AuxCost(node, INT64_MIN, INT64_MAX);
    std::cout << "  processor " << (node + 1) << " holds " << cost.entries
              << " IndexB entries (B-tree of " << cost.index_pages
              << " level(s))\n";
  }

  std::cout << "\nretrieve R.all where R.A < 50\n";
  auto qa = (*berd)->SitesFor({0, INT64_MIN, 49});
  std::cout << "  partitioning information routes the query to processor(s):";
  for (int n : qa.data_nodes) std::cout << " " << (n + 1);
  std::cout << " (no auxiliary phase)\n";

  std::cout << "\nretrieve R.all where R.B < 50\n";
  auto qb = (*berd)->SitesFor({1, INT64_MIN, 49});
  std::cout << "  phase 1 - search IndexB on processor(s):";
  for (int n : qb.aux_nodes) std::cout << " " << (n + 1);
  std::cout << "\n  phase 2 - fetch tuples from processor(s):";
  for (int n : qb.data_nodes) std::cout << " " << (n + 1);
  std::cout << "\n  (the paper's example finds the qualifying tuples B=10 "
               "and B=15 on processors 1 and 2)\n";
  return 0;
}
