// Page-level fault tests drive the select operator over a one-page plan.
#pragma once

#include "src/engine/operators.h"

namespace declust::engine {

/// Drives a SelectOp at `node` over a plan holding just `page`, with zero
/// activation CPU and no qualifying tuples: the select is then exactly one
/// page access (pool lookup, disk read with its retries and backoff, DMA,
/// processing).
inline sim::Task<Status> SelectOnePage(hw::Node* node, hw::PageAddress page,
                                       OperatorCosts costs, BufferPool* pool,
                                       FaultContext* fc,
                                       obs::QueryObs* qo = nullptr) {
  AccessPlan plan;
  plan.AddIndexPage(page);
  costs.startup_instructions = 0;
  const SelectSite at{node, &plan, &costs, pool, fc, qo, node->id(),
                      SelectKind::kData};
  SelectOp op;
  Status st;
  op.Start(at);
  do {
    st = co_await op.Wait(at);
  } while (op.Next(at, &st));
  co_return st;
}

}  // namespace declust::engine
