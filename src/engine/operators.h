// The select operator executed at an operator node (paper: "An Operator
// manager is responsible for modeling the relational operators (e.g.
// select). This manager repeatedly issues requests to the CPU, Disk and
// Network Interface managers to perform its particular operation.").
#pragma once

#include <limits>

#include "src/common/status.h"
#include "src/engine/buffer_pool.h"
#include "src/engine/catalog.h"
#include "src/engine/metrics.h"
#include "src/hw/node.h"
#include "src/obs/probe.h"
#include "src/sim/task.h"

namespace declust::engine {

/// Per-operator engine cost knobs (instruction counts at 3 MIPS).
struct OperatorCosts {
  /// Operator activation/teardown CPU at the operator node.
  int64_t startup_instructions = 1'000;
  /// Per-qualifying-tuple CPU (predicate evaluation + copy).
  int64_t per_tuple_instructions = 300;
  /// Scheduler CPU per participating site (part of CP).
  int64_t per_site_sched_instructions = 1'000;
  /// Scheduler CPU to parse/plan a query.
  int64_t plan_instructions = 3'000;
  /// CPU cost of a buffer-pool lookup (hash probe + pin).
  int64_t buffer_lookup_instructions = 300;
};

/// \brief How the engine reacts to injected faults.
struct FailoverPolicy {
  /// Max retries of one page read on a transient IoError.
  int max_read_retries = 4;
  /// Deterministic capped exponential backoff: base * 2^attempt, capped.
  double backoff_base_ms = 1.0;
  double backoff_cap_ms = 64.0;
  /// Per-query deadline: operations abandon once this much time has passed
  /// since the query was dispatched.
  double query_deadline_ms = 30'000.0;
  /// Pause a terminal takes after a failed query before submitting the next
  /// one (prevents a zero-cost failure from spinning the closed loop).
  double failed_query_backoff_ms = 100.0;
};

/// \brief Per-query failure-handling context threaded through operators.
/// With a null policy (the default) operators behave exactly as before
/// faults existed: the first error aborts the operator.
struct FaultContext {
  const FailoverPolicy* policy = nullptr;
  sim::SimTime deadline_ms = std::numeric_limits<double>::infinity();
  FaultStats* stats = nullptr;
};

/// \brief What a select does with the tuples its pages qualify.
enum class SelectKind {
  /// Data site: per-tuple CPU, then the qualifying tuples ship to the result
  /// node in tuple packets; the whole operator runs under a "select" span.
  kData,
  /// BERD auxiliary lookup: a quarter of the per-tuple CPU extracts the
  /// (tuple id, processor) pairs and nothing ships; the site replies itself.
  kAuxLookup,
};

/// \brief Executes a select at `node`: activation CPU, then every page of
/// the plan in read order (index pages, data pages, data runs), then the
/// tuple work `kind` calls for.
///
/// Each page goes through the pool (if any), the disk, the DMA interrupt
/// and the per-page CPU processing. A pool hit skips the disk read and the
/// DMA transfer; a page only becomes pool-resident after its disk read
/// succeeded, so a failed read can never produce a phantom hit on retry.
/// Transient IoErrors are retried with capped exponential backoff per `fc`
/// (when given); a retry that would land past the deadline returns
/// DeadlineExceeded.
///
/// For kData, completes when the last result packet has left this node's
/// interface. Returns the first unrecovered hardware error, or OK. `qo`
/// (optional) attributes the hardware time to its query and opens a "page"
/// span around each page access.
sim::Task<Status> RunSelect(hw::Node* node, const AccessPlan& plan,
                            int result_node, const OperatorCosts& costs,
                            BufferPool* pool = nullptr,
                            FaultContext* fc = nullptr,
                            obs::QueryObs* qo = nullptr,
                            SelectKind kind = SelectKind::kData);

}  // namespace declust::engine
