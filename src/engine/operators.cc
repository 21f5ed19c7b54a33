#include "src/engine/operators.h"

#include <algorithm>

namespace declust::engine {

namespace {

// Walks a plan's pages in read order: index pages, explicit data pages, then
// each run expanded arithmetically. This is the order the per-page plans
// used, so the disk sees an identical address sequence.
class PageCursor {
 public:
  explicit PageCursor(const AccessPlan& plan) : plan_(plan) {}

  bool Next(hw::PageAddress* page) {
    const size_t index_pages = plan_.index_pages.size();
    if (i_ < index_pages) {
      *page = plan_.index_pages[i_++];
      return true;
    }
    if (i_ < index_pages + plan_.data_pages.size()) {
      *page = plan_.data_pages[i_++ - index_pages];
      return true;
    }
    for (; run_ < plan_.data_runs.size(); ++run_, j_ = 0) {
      const hw::PageRun& run = plan_.data_runs[run_];
      if (j_ < run.count) {
        *page = run.At(j_++);
        return true;
      }
    }
    return false;
  }

 private:
  const AccessPlan& plan_;
  size_t i_ = 0;
  size_t run_ = 0;
  int64_t j_ = 0;
};

// The steps of one page access. Each ends in a CPU demand: the pool lookup,
// the DMA interrupt that moves a read page out of the SCSI FIFO, and the
// page processing.
enum class PageStep { kLookup, kRead, kProcess };

hw::Cpu::Awaiter PageCpu(hw::Node* node, PageStep step,
                         const OperatorCosts& costs) {
  switch (step) {
    case PageStep::kLookup:
      return node->cpu().Run(costs.buffer_lookup_instructions);
    case PageStep::kRead:
      return node->cpu().RunDma(node->params().scsi_transfer_instructions);
    case PageStep::kProcess:
      break;
  }
  return node->cpu().Run(node->params().read_page_instructions);
}

// Decides what a failed page read does next: returns the backoff to sleep
// before the next attempt, or a negative value when the read gives up, with
// `st` then holding the final error.
double RetryBackoff(Status* st, int attempt, const FaultContext* fc,
                    double now) {
  const bool transient = st->IsIoError();
  if (transient && fc != nullptr && fc->stats != nullptr) {
    ++fc->stats->io_errors;
  }
  if (!transient || fc == nullptr || fc->policy == nullptr ||
      attempt >= fc->policy->max_read_retries) {
    return -1.0;
  }
  // Deterministic capped exponential backoff (no randomness: the retry trace
  // must be identical across runs with the same seed).
  const double backoff =
      std::min(fc->policy->backoff_cap_ms,
               fc->policy->backoff_base_ms * static_cast<double>(1 << attempt));
  if (now + backoff >= fc->deadline_ms) {
    if (fc->stats != nullptr) ++fc->stats->timeouts;
    *st = Status::DeadlineExceeded("read retries exhausted the deadline");
    return -1.0;
  }
  if (fc->stats != nullptr) ++fc->stats->retries;
  return backoff;
}

}  // namespace

sim::Task<Status> RunSelect(hw::Node* node, const AccessPlan& plan,
                            int result_node, const OperatorCosts& costs,
                            BufferPool* pool, FaultContext* fc,
                            obs::QueryObs* qo, SelectKind kind) {
  // The page loop is inline and every step shares one Status, so a site
  // parked on its disk holds just this frame and its own. GCC gives each
  // co_await site and each local that lives across one its own frame slot,
  // hence one disk read await, one per-page CPU await and few locals.
  sim::Simulation* simu = node->simulation();
  const uint64_t saved_span = qo != nullptr ? qo->span : 0;
  const uint64_t select_span =
      kind == SelectKind::kData
          ? obs::BeginSpan(qo, "select", obs::Component::kQuery, node->id(),
                           simu->now())
          : 0;
  if (select_span != 0) qo->span = select_span;

  // Operator activation.
  obs::ArmHw(qo);
  Status st = co_await node->cpu().Run(costs.startup_instructions);

  // Index pages are random reads; data pages are sequential for clustered
  // scans and random otherwise (the addresses in the plan and the elevator
  // model decide).
  PageCursor pages(plan);
  hw::PageAddress page;
  while (st.ok() && pages.Next(&page)) {
    const uint64_t page_span = obs::BeginSpan(
        qo, "page", obs::Component::kQuery, node->id(), simu->now());
    if (page_span != 0) qo->span = page_span;
    // The page's steps share one CPU await: the pool lookup (pooled nodes
    // only), the disk read and its DMA, then processing. A pool hit skips
    // the read.
    PageStep step = pool != nullptr ? PageStep::kLookup : PageStep::kRead;
    while (st.ok()) {
      if (step == PageStep::kRead) {
        for (int attempt = 0;; ++attempt) {
          obs::ArmHw(qo);
          st = co_await node->disk().Read(page);
          if (st.ok()) break;
          const double backoff = RetryBackoff(&st, attempt, fc, simu->now());
          if (backoff < 0.0) break;
          const double backoff_begin = simu->now();
          co_await simu->WaitFor(backoff);
          if (qo != nullptr) {
            qo->costs.backoff_ms += simu->now() - backoff_begin;
            obs::CompleteSpan(qo, "backoff", obs::Component::kBackoff,
                              node->id(), backoff_begin, simu->now());
          }
        }
        if (!st.ok()) break;
        // The read succeeded; only now may the page become resident.
        // Inserting before the read (the old Touch semantics) left
        // fault-aborted reads cached, so the retry saw a phantom hit and
        // skipped the disk entirely.
        if (pool != nullptr) pool->Insert(page);
      }
      obs::ArmHw(qo);
      st = co_await PageCpu(node, step, costs);
      if (!st.ok() || step == PageStep::kProcess) break;
      step = step == PageStep::kLookup && !pool->Lookup(page)
                 ? PageStep::kRead
                 : PageStep::kProcess;
    }
    if (page_span != 0) {
      obs::EndSpan(qo, page_span, simu->now());
      qo->span = select_span != 0 ? select_span : saved_span;
    }
  }

  // Predicate evaluation / tuple extraction; an aux lookup only extracts
  // (tuple id, processor) pairs.
  if (st.ok() && plan.tuples > 0) {
    obs::ArmHw(qo);
    st = co_await node->cpu().Run(
        kind == SelectKind::kData
            ? plan.tuples * costs.per_tuple_instructions
            : plan.tuples * costs.per_tuple_instructions / 4);
  }

  // Ship qualifying tuples to the result site in tuple packets. The await
  // covers this interface's occupancy (delivery at the receiver proceeds
  // asynchronously), so the elapsed time is this query's network share.
  for (int64_t left = st.ok() && kind == SelectKind::kData ? plan.tuples : 0;
       left > 0; left -= node->params().tuples_per_packet) {
    const double send_begin = simu->now();
    obs::ArmHw(qo);
    st = co_await node->network().Send(
        node->id(), result_node,
        static_cast<int>(
            std::min<int64_t>(left, node->params().tuples_per_packet) *
            node->params().tuple_size_bytes));
    if (!st.ok()) break;
    if (qo != nullptr) qo->costs.network_ms += simu->now() - send_begin;
  }

  if (select_span != 0) {
    obs::EndSpan(qo, select_span, simu->now());
    qo->span = saved_span;
  }
  co_return st;
}

}  // namespace declust::engine
