// Extension: maintenance cost of the declustering strategies. The paper
// evaluates read-only selections; a known criticism of BERD is that every
// insert must also maintain the auxiliary relation on a DIFFERENT
// processor (value-ordered, so usually remote), while range/MAGIC/CMD
// touch only the tuple's home fragment. This bench quantifies the number
// of processors an insert involves per strategy.
#include <iomanip>
#include <iostream>

#include "src/common/random.h"
#include "src/exp/experiment.h"

namespace {

using namespace declust;  // NOLINT(build/namespaces)

int Run() {
  exp::ExperimentConfig base = exp::ApplyQuickMode(exp::ExperimentConfig{});
  workload::WisconsinOptions wopts;
  wopts.cardinality = base.cardinality;
  wopts.seed = 7;
  const auto rel = workload::MakeWisconsin(wopts);
  const auto wl = workload::MakeMix(workload::ResourceClass::kLow,
                                    workload::ResourceClass::kLow);

  std::cout << "Insert maintenance (processors touched per inserted tuple, "
            << "32 processors)\n";
  std::cout << std::left << std::setw(10) << "strategy" << std::setw(16)
            << "avg sites" << std::setw(24) << "remote-aux fraction"
            << "\n";

  RandomStream rng(99);
  for (const char* strat : {"range", "hash", "CMD", "BERD", "MAGIC"}) {
    auto part = exp::MakePartitioning(strat, rel, wl, 32);
    if (!part.ok()) {
      std::cerr << part.status().ToString() << "\n";
      return 1;
    }
    double sites_sum = 0;
    int remote_aux = 0;
    const int trials = 2000;
    for (int i = 0; i < trials; ++i) {
      // A new tuple with fresh attribute values.
      const std::vector<storage::Value> values = {
          rng.UniformInt(0, rel.cardinality() - 1),
          rng.UniformInt(0, rel.cardinality() - 1)};
      const auto sites = (*part)->InsertSites(values);
      if (!sites.ok()) {
        std::cerr << sites.status().ToString() << "\n";
        return 1;
      }
      sites_sum += static_cast<double>(sites->size());
      if (sites->size() > 1) ++remote_aux;
    }
    std::cout << std::left << std::setw(10) << strat << std::setw(16)
              << std::fixed << std::setprecision(3) << sites_sum / trials
              << std::setw(24)
              << static_cast<double>(remote_aux) / trials << "\n";
  }
  std::cout << "\nBERD pays ~1 extra processor per insert (the auxiliary\n"
               "relation is value-ordered on B, so the IndexB fragment "
               "almost never\nco-resides with the tuple's home); the other "
               "strategies are local.\n";
  return 0;
}

}  // namespace

int main() { return Run(); }
