// The select operator executed at an operator node (paper: "An Operator
// manager is responsible for modeling the relational operators (e.g.
// select). This manager repeatedly issues requests to the CPU, Disk and
// Network Interface managers to perform its particular operation.").
#pragma once

#include <coroutine>
#include <cstdint>
#include <limits>
#include <utility>
#include <variant>

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
enum class SelectKind : uint8_t {
  /// Data site: per-tuple CPU, then the qualifying tuples ship to the result
  /// node in tuple packets; the whole operator runs under a "select" span.
  kData,
  /// BERD auxiliary lookup: a quarter of the per-tuple CPU extracts the
  /// (tuple id, processor) pairs and nothing ships; the site replies itself.
  kAuxLookup,
};

/// \brief One awaiter for every hardware wait a select makes: a CPU demand,
/// a disk read, a retry backoff or a tuple packet. GCC gives each
/// `co_await` expression its own frame slot, so a coroutine that makes all
/// of them through one HwAwaiter keeps one slot, sized for the largest
/// kind, instead of one per kind. Its result is the wait's Status (always
/// OK for a backoff).
class [[nodiscard]] HwAwaiter {
 public:
  /// A retry backoff's timer, which cannot fail.
  struct Timer {
    decltype(std::declval<sim::Simulation&>().WaitFor(0.0)) wait;
    Status status;
    bool await_ready() noexcept { return wait.await_ready(); }
    void await_suspend(std::coroutine_handle<> h) { wait.await_suspend(h); }
    Status&& await_resume() noexcept { return std::move(status); }
  };

  // Implicit, so a function returning an HwAwaiter returns any kind.
  HwAwaiter(hw::Cpu::Awaiter a) : a_(std::move(a)) {}
  HwAwaiter(hw::Disk::Awaiter a) : a_(std::move(a)) {}
  HwAwaiter(hw::Network::TransferAwaiter a) : a_(std::move(a)) {}
  HwAwaiter(Timer a) : a_(std::move(a)) {}

  bool await_ready() noexcept {
    return std::visit([](auto& a) { return a.await_ready(); }, a_);
  }
  void await_suspend(std::coroutine_handle<> h) {
    std::visit([h](auto& a) { a.await_suspend(h); }, a_);
  }
  Status&& await_resume() noexcept {
    return std::visit([](auto& a) -> Status&& { return a.await_resume(); },
                      a_);
  }

 private:
  std::variant<hw::Cpu::Awaiter, hw::Disk::Awaiter,
               hw::Network::TransferAwaiter, Timer>
      a_;
};

/// \brief Where a select runs, what it reads and where its results go. A
/// driver builds one for each call; the select keeps none of it.
struct SelectSite {
  hw::Node* node = nullptr;
  const AccessPlan* plan = nullptr;
  const OperatorCosts* costs = nullptr;
  BufferPool* pool = nullptr;   // the node's pool, or null
  FaultContext* fc = nullptr;   // retry policy, deadline and counters
  obs::QueryObs* qo = nullptr;  // attribution handle, or null
  int result_node = 0;          // where kData result packets go
  SelectKind kind = SelectKind::kData;
};

/// \brief The select operator as a plain state object: activation CPU,
/// then every page of the plan in read order (index pages, data pages, the
/// data run), then the tuple work its kind calls for and, for kData, the
/// result packets.
///
/// A driver coroutine runs it:
///
///     op.Start(at);
///     do {
///       st = co_await op.Wait(at);
///     } while (op.Next(at, &st));
///
/// Start() and Next() decide the next hardware wait and arm the probe for
/// it; Wait() makes it. The select's state (page cursor, step, page, retry
/// attempt, open spans) lives wherever the SelectOp does, so a site keeps
/// it in its own frame and a site parked on its disk holds one frame.
///
/// Each page goes through the pool (if any), the disk, the DMA interrupt
/// and the per-page CPU processing. A pool hit skips the disk read and the
/// DMA transfer; a page only becomes pool-resident after its disk read
/// succeeded, so a failed read can never produce a phantom hit on retry.
/// Transient IoErrors are retried with capped exponential backoff per the
/// site's FaultContext (when given); a retry that would land past the
/// deadline ends the select with DeadlineExceeded.
///
/// For kData, the select ends when the last result packet has left the
/// node's interface. It ends with the first unrecovered hardware error, or
/// OK. With a handle, the hardware time is attributed to its query and a
/// "page" span opens around each page access.
class SelectOp {
 public:
  /// Opens the select at `at` and asks for its first wait.
  void Start(const SelectSite& at);
  /// Takes the Status of the wait just made in `*st`; true: Wait() makes
  /// the next one, false: the select has ended with its result in `*st`.
  bool Next(const SelectSite& at, Status* st);
  /// The wait Start() or Next() asked for.
  HwAwaiter Wait(const SelectSite& at) const;

 private:
  // The CPU demands of one select, in the order it makes them: activation,
  // then for each page the pool lookup, the DMA interrupt that moves a read
  // page out of the SCSI FIFO and the page processing, then the tuple work.
  enum class Step : uint8_t { kActivate, kLookup, kRead, kProcess, kTuples };
  // The hardware a wait uses.
  enum class Hw : uint8_t { kCpu, kRead, kBackoff, kSend, kNone };

  // Arms the probe for `hw` (not for a backoff) and asks for it; true.
  bool Ask(const SelectSite& at, Hw hw);
  // After the current step's CPU, or its failed read: closes the page span
  // when the page is done, and moves on to the next step or the packets.
  bool EndStep(const SelectSite& at, const Status& st);
  // Asks for the next tuple packet, or ends the select.
  bool NextPacket(const SelectSite& at);

  int64_t run_pos_ = 0;       // next page of the plan's run
  int64_t left_ = 0;          // qualifying tuples still to ship
  uint64_t saved_span_ = 0;   // the driver's span, restored at the end
  uint64_t select_span_ = 0;  // the page spans' parent
  double begin_ms_ = 0.0;     // start of the backoff or packet in progress
  hw::PageAddress page_;
  uint32_t page_pos_ = 0;     // next explicit page of the plan
  int attempt_ = 0;           // retry attempt of the current read
  Step step_ = Step::kActivate;
  Hw hw_ = Hw::kNone;         // the wait last asked for
};

}  // namespace declust::engine
