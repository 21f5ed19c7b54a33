// The setup path of one sweep config, made of the same public calls that
// exp::RunThroughputSweep makes before its first point: the relations, the
// query mix and one partitioning per (strategy, relation). The setup child
// times it end to end; the traced child wraps a span around each step.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/decluster/strategy.h"
#include "src/engine/system.h"
#include "src/exp/experiment.h"
#include "src/storage/relation.h"
#include "src/workload/mixes.h"

namespace declust::bench {

/// \brief Shared read-only inputs of one sweep config.
struct SweepInputs {
  /// relations[0] is the base relation; the rest are an open plan's extra
  /// relations.
  std::vector<storage::Relation> relations;
  workload::Workload workload;
  int num_slices = 0;
  /// parts[s][r]: strategy s's partitioning of relations[r].
  std::vector<std::vector<std::unique_ptr<decluster::Partitioning>>> parts;
  /// extras[s]: the extra relations handed to strategy s's points.
  std::vector<std::vector<engine::SystemConfig::ExtraRelation>> extras;
};

/// Runs `body` once. The traced child passes one that records a span named
/// `name` around it.
using Around =
    std::function<Status(std::string_view name, const std::function<Status()>&
                                                    body)>;

/// A plain call: the untraced setup path.
Status Untraced(std::string_view name, const std::function<Status()>& body);

/// Builds the relations ("workload.relation") and the partitionings
/// ("decluster.partition[<strategy>]").
Result<SweepInputs> BuildSweepInputs(const exp::ExperimentConfig& config,
                                     const Around& around);

/// Builds strategy `s`'s catalog standalone, as a point's System::Init does
/// (base relation, then each extra relation on the same disks), frees it and
/// returns its index bytes.
Result<int64_t> BuildCatalog(const exp::ExperimentConfig& config,
                             const SweepInputs& inputs, size_t s);

}  // namespace declust::bench
