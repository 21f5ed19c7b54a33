// Quickstart: decluster a relation with MAGIC and run a short multi-user
// simulation against it.
//
//   1. generate a Wisconsin-style relation,
//   2. define the query workload (the paper's low-low mix),
//   3. build the MAGIC partitioning (planner + grid file + assignment),
//   4. simulate a 32-processor Gamma configuration at MPL 16,
//   5. print throughput and response times.
#include <iostream>

#include "src/decluster/magic.h"
#include "src/engine/system.h"
#include "src/exp/experiment.h"
#include "src/sim/simulation.h"
#include "src/workload/mixes.h"
#include "src/workload/wisconsin.h"

int main() {
  using namespace declust;  // NOLINT(build/namespaces)

  // 1. The relation: 100,000 tuples with unique1 (attribute A) and unique2
  //    (attribute B), independently distributed.
  workload::WisconsinOptions wopts;
  wopts.cardinality = 100'000;
  wopts.correlation = 0.0;
  const storage::Relation relation = workload::MakeWisconsin(wopts);
  std::cout << "relation: " << relation.cardinality() << " tuples, "
            << relation.schema().num_attributes() << " attributes\n";

  // 2. The workload: 50% single-tuple exact matches on A, 50% 10-tuple
  //    clustered ranges on B.
  const workload::Workload mix = workload::MakeMix(
      workload::ResourceClass::kLow, workload::ResourceClass::kLow);

  // 3. MAGIC declustering across 32 processors.
  auto magic = decluster::MagicPartitioning::Create(
      relation, {workload::WisconsinAttrs::kUnique1,
                 workload::WisconsinAttrs::kUnique2},
      mix, 32);
  if (!magic.ok()) {
    std::cerr << "MAGIC failed: " << magic.status().ToString() << "\n";
    return 1;
  }
  std::cout << "MAGIC plan: M = " << (*magic)->plan().m
            << ", FC = " << (*magic)->plan().fragment_cardinality
            << ", Mi = {" << (*magic)->plan().mi[0] << ", "
            << (*magic)->plan().mi[1] << "}\n";
  std::cout << "grid directory: " << (*magic)->ShapeString() << " ("
            << (*magic)->num_cells() << " fragments)\n";

  // A sample query -> processors mapping.
  auto sites = (*magic)->SitesFor({0, 4242, 4242});
  std::cout << "exact match A=4242 -> " << sites.data_nodes.size()
            << " processor(s)\n";
  sites = (*magic)->SitesFor({1, 5000, 5009});
  std::cout << "range B in [5000,5009] -> " << sites.data_nodes.size()
            << " processor(s)\n";

  // 4. Simulate.
  sim::Simulation sim;
  engine::SystemConfig config;
  config.multiprogramming_level = 16;
  engine::System system(&sim, config, &relation, magic->get(), &mix);
  if (Status st = system.Init(); !st.ok()) {
    std::cerr << "init failed: " << st.ToString() << "\n";
    return 1;
  }
  system.Start();
  sim.RunUntil(2'000);  // 2 simulated seconds of warm-up
  system.metrics().StartMeasurement(sim.now());
  sim.RunUntil(12'000);  // 10 simulated seconds of measurement

  // 5. Report.
  std::cout << "throughput: " << system.metrics().ThroughputQps(sim.now())
            << " queries/second at MPL " << config.multiprogramming_level
            << "\n";
  std::cout << "mean response time: "
            << system.metrics().response_ms().mean() << " ms ("
            << system.metrics().completed_in_window() << " queries)\n";
  std::cout << "avg processors per query: "
            << system.metrics().processors_used().mean() << "\n";
  return 0;
}
