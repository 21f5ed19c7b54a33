#include "bench_e2e/inputs.h"

#include <string>

#include "src/engine/catalog.h"
#include "src/workload/open.h"
#include "src/workload/wisconsin.h"

namespace declust::bench {

Status Untraced(std::string_view, const std::function<Status()>& body) {
  return body();
}

Result<SweepInputs> BuildSweepInputs(const exp::ExperimentConfig& config,
                                     const Around& around) {
  DECLUST_RETURN_NOT_OK(exp::ValidateExperimentConfig(config));
  SweepInputs in;
  DECLUST_ASSIGN_OR_RETURN(in.num_slices, exp::PartitioningSlices(config));

  // Same generator options and seed offsets as the runner.
  std::vector<workload::WisconsinOptions> specs(1);
  specs[0].cardinality = config.cardinality;
  specs[0].correlation = config.correlation;
  specs[0].seed = config.seed;
  if (!config.open.empty()) {
    DECLUST_ASSIGN_OR_RETURN(const workload::OpenPlan plan,
                             workload::OpenPlan::Parse(config.open));
    for (size_t e = 0; e < plan.extra_relations().size(); ++e) {
      workload::WisconsinOptions o;
      o.cardinality = plan.extra_relations()[e].cardinality;
      o.correlation = plan.extra_relations()[e].correlation;
      o.seed = config.seed + 100 + e;
      specs.push_back(o);
    }
  }
  DECLUST_RETURN_NOT_OK(around("workload.relation", [&] {
    in.relations.reserve(specs.size());
    for (const auto& o : specs) {
      in.relations.push_back(workload::MakeWisconsin(o));
    }
    return Status::OK();
  }));
  in.workload = workload::MakeMix(config.qa, config.qb, config.mix);

  for (const std::string& strategy : config.strategies) {
    DECLUST_RETURN_NOT_OK(
        around("decluster.partition[" + strategy + "]", [&]() -> Status {
          std::vector<std::unique_ptr<decluster::Partitioning>> row;
          for (const storage::Relation& r : in.relations) {
            DECLUST_ASSIGN_OR_RETURN(
                auto p, exp::MakePartitioning(strategy, r, in.workload,
                                              in.num_slices));
            row.push_back(std::move(p));
          }
          in.parts.push_back(std::move(row));
          return Status::OK();
        }));
  }
  for (const auto& row : in.parts) {
    std::vector<engine::SystemConfig::ExtraRelation> extras;
    for (size_t r = 1; r < row.size(); ++r) {
      extras.push_back({&in.relations[r], row[r].get()});
    }
    in.extras.push_back(std::move(extras));
  }
  return in;
}

Result<int64_t> BuildCatalog(const exp::ExperimentConfig& config,
                             const SweepInputs& inputs, size_t s) {
  hw::HwParams hw;
  hw.num_processors = inputs.num_slices;
  engine::CatalogOptions opts;
  opts.build_jobs = 1;
  // System::Init arms chained backups whenever a fault plan is present.
  opts.chained_backups = !config.faults.empty() && inputs.num_slices > 1;
  const engine::SystemConfig defaults;
  DECLUST_ASSIGN_OR_RETURN(
      std::unique_ptr<engine::SystemCatalog> base,
      engine::SystemCatalog::Build(&inputs.relations[0],
                                   inputs.parts[s][0].get(), defaults.attr_a,
                                   defaults.attr_b, hw, opts));
  int64_t bytes = base->memory_bytes();
  for (size_t r = 1; r < inputs.relations.size(); ++r) {
    DECLUST_ASSIGN_OR_RETURN(
        std::unique_ptr<engine::SystemCatalog> extra,
        engine::SystemCatalog::Build(&inputs.relations[r],
                                     inputs.parts[s][r].get(), defaults.attr_a,
                                     defaults.attr_b, hw, opts,
                                     /*placement=*/nullptr, base.get()));
    bytes += extra->memory_bytes();
  }
  return bytes;
}

}  // namespace declust::bench
