// The in-text table of section 7: for each query mix, the MAGIC grid
// directory shape and the average number of processors each strategy
// directs a query to (e.g. paper: low-low -> 62x61 grid, MAGIC 6.39
// processors, range 16.5, BERD 6).
#include <iomanip>
#include <iostream>

#include "src/decluster/magic.h"
#include "src/exp/experiment.h"
#include "src/workload/querygen.h"
#include "src/workload/wisconsin.h"

namespace {

using namespace declust;  // NOLINT(build/namespaces)

double AvgProcessors(const decluster::Partitioning& part,
                     const workload::Workload& wl, int64_t domain,
                     bool count_aux) {
  workload::QueryGenerator gen(&wl, domain, RandomStream(99));
  double sum = 0;
  const int trials = 400;
  for (int i = 0; i < trials; ++i) {
    const auto q = gen.Next();
    const auto sites = part.SitesFor({q.attr, q.lo, q.hi});
    sum += static_cast<double>(sites.data_nodes.size());
    if (count_aux) sum += static_cast<double>(sites.aux_nodes.size());
  }
  return sum / trials;
}

int Run() {
  const char* mix_names[] = {"low-low", "low-moderate", "moderate-low",
                             "moderate-moderate"};
  const workload::ResourceClass classes[][2] = {
      {workload::ResourceClass::kLow, workload::ResourceClass::kLow},
      {workload::ResourceClass::kLow, workload::ResourceClass::kModerate},
      {workload::ResourceClass::kModerate, workload::ResourceClass::kLow},
      {workload::ResourceClass::kModerate,
       workload::ResourceClass::kModerate},
  };

  std::cout << "Section 7 in-text table: grid shapes and average processors "
               "per query (low correlation)\n";
  std::cout << std::left << std::setw(20) << "mix" << std::setw(12) << "grid"
            << std::setw(10) << "M" << std::setw(12) << "Mi(A)"
            << std::setw(12) << "Mi(B)" << std::setw(10) << "MAGIC"
            << std::setw(10) << "range" << std::setw(10) << "BERD" << "\n";

  exp::ExperimentConfig base = exp::ApplyQuickMode(exp::ExperimentConfig{});
  workload::WisconsinOptions wopts;
  wopts.cardinality = base.cardinality;
  wopts.correlation = 0.0;
  wopts.seed = 7;
  const auto rel = workload::MakeWisconsin(wopts);

  for (int m = 0; m < 4; ++m) {
    const auto wl = workload::MakeMix(classes[m][0], classes[m][1]);
    auto magic = exp::MakePartitioning("MAGIC", rel, wl, 32);
    auto range = exp::MakePartitioning("range", rel, wl, 32);
    auto berd = exp::MakePartitioning("BERD", rel, wl, 32);
    if (!magic.ok() || !range.ok() || !berd.ok()) {
      std::cerr << "partitioning failed\n";
      return 1;
    }
    const auto* mp =
        dynamic_cast<const decluster::MagicPartitioning*>(magic->get());
    std::cout << std::left << std::setw(20) << mix_names[m] << std::setw(12)
              << mp->ShapeString() << std::fixed
              << std::setprecision(2) << std::setw(10) << mp->plan().m
              << std::setw(12) << mp->plan().mi[0] << std::setw(12)
              << mp->plan().mi[1] << std::setw(10)
              << AvgProcessors(**magic, wl, rel.cardinality(), false)
              << std::setw(10)
              << AvgProcessors(**range, wl, rel.cardinality(), false)
              << std::setw(10)
              << AvgProcessors(**berd, wl, rel.cardinality(), true) << "\n";
  }
  return 0;
}

}  // namespace

int main() { return Run(); }
