// Paper section 4 (figure 6): the Emp(ss#, name, age, salary, dept_no)
// relation whose age and salary attributes are highly correlated. Shows
//   * how correlation concentrates tuples on the grid diagonal,
//   * the skew the plain assignment produces and how the hill-climbing
//     slice-swap rebalancer repairs it,
//   * how BERD and MAGIC localize queries on either attribute to a single
//     processor when the attributes are correlated.
#include <algorithm>
#include <iostream>

#include "src/common/random.h"
#include "src/decluster/berd.h"
#include "src/decluster/magic.h"
#include "src/workload/mixes.h"

int main() {
  using namespace declust;  // NOLINT(build/namespaces)

  // Emp: salary grows (noisily) with age.
  storage::Schema schema(
      {{"ssn"}, {"name"}, {"age"}, {"salary"}, {"dept_no"}});
  storage::Relation emp("Emp", schema);
  RandomStream rng(1992);
  const int64_t kEmployees = 50'000;
  for (int64_t i = 0; i < kEmployees; ++i) {
    const int64_t age = rng.UniformInt(20, 65);
    const int64_t salary =
        20'000 + age * 1'500 + rng.UniformInt(-2'000, 2'000);
    (void)emp.Append({i, i, age, salary, rng.UniformInt(0, 9)});
  }

  workload::Workload wl;
  wl.name = "payroll";
  workload::QueryClassSpec q_salary;
  q_salary.name = "Q_salary";
  q_salary.attr = 0;  // first partitioning attribute = salary
  q_salary.tuples = 10;
  q_salary.frequency = 0.5;
  q_salary.declared_cpu_ms = 2.0;
  workload::QueryClassSpec q_age;
  q_age.name = "Q_age";
  q_age.attr = 1;  // second partitioning attribute = age
  q_age.tuples = 10;
  q_age.frequency = 0.5;
  q_age.declared_cpu_ms = 2.0;
  wl.classes = {q_salary, q_age};

  const int kProcessors = 32;
  const std::vector<storage::AttrId> attrs = {/*salary*/ 3, /*age*/ 2};

  // MAGIC without the rebalancer: the diagonal concentrates the tuples.
  decluster::MagicOptions raw;
  raw.rebalance = false;
  auto skewed =
      decluster::MagicPartitioning::Create(emp, attrs, wl, kProcessors, raw);
  auto balanced =
      decluster::MagicPartitioning::Create(emp, attrs, wl, kProcessors);
  if (!skewed.ok() || !balanced.ok()) {
    std::cerr << "MAGIC failed\n";
    return 1;
  }

  auto [smax, smin] = (*skewed)->LoadExtremes();
  auto [bmax, bmin] = (*balanced)->LoadExtremes();
  std::cout << "Emp(age, salary): correlated attributes over "
            << (*skewed)->ShapeString() << " grid\n";

  // Figure 6, rendered: tuple density over a coarsened grid directory
  // (darker = more tuples; the mass hugs the diagonal).
  {
    const auto& dims = (*skewed)->dims();
    const auto& weights = (*skewed)->cell_weights();
    constexpr int kRows = 12, kCols = 28;
    int64_t bucket[kRows][kCols] = {};
    for (int64_t c = 0; c < (*skewed)->num_cells(); ++c) {
      // Row-major cells: salary slice c / dims[1], age slice c % dims[1].
      const int r = static_cast<int>(c % dims[1] * kRows / dims[1]);
      const int col = static_cast<int>(c / dims[1] * kCols / dims[0]);
      bucket[r][col] += weights[static_cast<size_t>(c)];
    }
    int64_t peak = 1;
    for (auto& row : bucket) {
      for (int64_t w : row) peak = std::max(peak, w);
    }
    std::cout << "\nFigure 6 (tuple density, age vertical / salary "
                 "horizontal):\n";
    const char shades[] = " .:*#@";
    for (int r = kRows - 1; r >= 0; --r) {
      std::cout << "  |";
      for (int col = 0; col < kCols; ++col) {
        const auto idx = static_cast<size_t>(
            bucket[r][col] * 5 / peak);
        std::cout << shades[idx];
      }
      std::cout << "|\n";
    }
    std::cout << "\n";
  }
  const auto& hist = (*skewed)->cell_weights();
  int64_t empty = 0;
  for (int64_t w : hist) {
    if (w == 0) ++empty;
  }
  std::cout << "  " << empty << " of " << hist.size()
            << " grid cells are empty (tuples sit on the diagonal, "
               "figure 6)\n";
  std::cout << "  tuples per processor without rebalancer: max " << smax
            << ", min " << smin << " (spread " << (smax - smin) << ")\n";
  std::cout << "  after hill-climbing slice swaps:         max " << bmax
            << ", min " << bmin << " (spread " << (bmax - bmin) << ", "
            << (*balanced)->rebalance_result().swaps << " swaps)\n\n";

  // Query localization under correlation (section 4's Q_age discussion).
  auto m_salary = (*balanced)->SitesFor({0, 60'000, 60'900});
  auto m_age = (*balanced)->SitesFor({1, 40, 40});
  std::cout << "MAGIC: Q_salary -> " << m_salary.data_nodes.size()
            << " processor(s); Q_age -> " << m_age.data_nodes.size()
            << " processor(s)\n";

  auto berd = decluster::BerdPartitioning::Create(emp, attrs, kProcessors);
  if (!berd.ok()) {
    std::cerr << "BERD failed\n";
    return 1;
  }
  auto b_salary = (*berd)->SitesFor({0, 60'000, 60'900});
  auto b_age = (*berd)->SitesFor({1, 40, 40});
  std::cout << "BERD:  Q_salary -> " << b_salary.data_nodes.size()
            << " processor(s); Q_age -> " << b_age.aux_nodes.size()
            << " aux + " << b_age.data_nodes.size() << " data processor(s)"
            << "\n";
  std::cout << "\nWith highly correlated attributes both strategies localize"
               " queries on either attribute,\nfreeing the remaining "
               "processors for other queries (paper section 4).\n";
  return 0;
}
