#include "src/engine/operators.h"

#include <algorithm>
#include <cstdint>

namespace declust::engine {

namespace {

// Walks a plan's pages in read order: index pages, explicit data pages, then
// each run expanded arithmetically. This is the order the per-page plans
// used, so the disk sees an identical address sequence. The cursor lives on
// the select's frame, so it holds two 32-bit list positions and no plan.
class PageCursor {
 public:
  bool Next(const AccessPlan& plan, hw::PageAddress* page) {
    if (i_ < plan.pages().size()) {
      *page = plan.pages()[i_++];
      return true;
    }
    for (; run_ < plan.data_runs.size(); ++run_, j_ = 0) {
      const hw::PageRun& run = plan.data_runs[run_];
      if (j_ < run.count) {
        *page = run.At(j_++);
        return true;
      }
    }
    return false;
  }

 private:
  uint32_t i_ = 0;
  uint32_t run_ = 0;
  int64_t j_ = 0;
};

// The CPU demands of one select, in the order it makes them: activation,
// then for each page the pool lookup, the DMA interrupt that moves a read
// page out of the SCSI FIFO and the page processing, then the tuple work.
enum class SelectStep { kActivate, kLookup, kRead, kProcess, kTuples };

hw::Cpu::Awaiter SelectCpu(hw::Node* node, SelectStep step,
                           const AccessPlan& plan, const OperatorCosts& costs,
                           SelectKind kind) {
  switch (step) {
    case SelectStep::kActivate:
      return node->cpu().Run(costs.startup_instructions);
    case SelectStep::kLookup:
      return node->cpu().Run(costs.buffer_lookup_instructions);
    case SelectStep::kRead:
      return node->cpu().RunDma(node->params().scsi_transfer_instructions);
    case SelectStep::kProcess:
      break;
    case SelectStep::kTuples:
      // An aux lookup only extracts (tuple id, processor) pairs.
      return node->cpu().Run(
          kind == SelectKind::kData
              ? plan.tuples * costs.per_tuple_instructions
              : plan.tuples * costs.per_tuple_instructions / 4);
  }
  return node->cpu().Run(node->params().read_page_instructions);
}

// Deterministic capped exponential backoff before retry `attempt` of a
// page read (no randomness: the retry trace must be identical across runs
// with the same seed).
double BackoffMs(int attempt, const FailoverPolicy& policy) {
  return std::min(policy.backoff_cap_ms,
                  policy.backoff_base_ms * static_cast<double>(1 << attempt));
}

// Decides whether a failed page read is retried after BackoffMs; when it
// gives up, `st` holds the final error.
bool RetryRead(Status* st, int attempt, const FaultContext* fc, double now) {
  const bool transient = st->IsIoError();
  if (transient && fc != nullptr && fc->stats != nullptr) {
    ++fc->stats->io_errors;
  }
  if (!transient || fc == nullptr || fc->policy == nullptr ||
      attempt >= fc->policy->max_read_retries) {
    return false;
  }
  if (now + BackoffMs(attempt, *fc->policy) >= fc->deadline_ms) {
    if (fc->stats != nullptr) ++fc->stats->timeouts;
    *st = Status::DeadlineExceeded("read retries exhausted the deadline");
    return false;
  }
  if (fc->stats != nullptr) ++fc->stats->retries;
  return true;
}

// Bytes of the next tuple packet when `left` qualifying tuples remain to
// ship: a full packet or the rest.
int PacketBytes(const hw::HwParams& params, int64_t left) {
  return static_cast<int>(
      std::min<int64_t>(left, params.tuples_per_packet) *
      params.tuple_size_bytes);
}

}  // namespace

sim::Task<Status> RunSelect(hw::Node* node, const AccessPlan& plan,
                            int result_node, const OperatorCosts& costs,
                            BufferPool* pool, FaultContext* fc,
                            obs::QueryObs* qo, SelectKind kind) {
  // The page loop is inline and every step shares one Status, so a site
  // parked on its disk holds just this frame and its own. GCC gives each
  // co_await site, each local of the body and each temporary of a
  // co_await's full-expression its own frame slot: hence one await per kind
  // (CPU, disk read, backoff, send), few locals, open spans kept on `qo`,
  // and awaited arguments computed by plain functions.
  const uint64_t saved_span = qo != nullptr ? qo->span : 0;
  if (kind == SelectKind::kData) {
    obs::PushSpan(qo, "select", obs::Component::kQuery, node->id(),
                  node->simulation()->now());
  }
  // The page spans' parent: the select span when one opened.
  const uint64_t select_span = qo != nullptr ? qo->span : 0;

  // Index pages are random reads; data pages are sequential for clustered
  // scans and random otherwise (the addresses in the plan and the elevator
  // model decide). A page's steps are the pool lookup (pooled nodes only),
  // the disk read and its DMA, then processing; a pool hit skips the read.
  PageCursor pages;
  hw::PageAddress page;
  Status st;
  double begin_ms = 0.0;  // start of the backoff or packet send in progress
  for (SelectStep step = SelectStep::kActivate;;) {
    if (step == SelectStep::kRead) {
      for (int attempt = 0;; ++attempt) {
        obs::ArmHw(qo);
        st = co_await node->disk().Read(page);
        if (st.ok() ||
            !RetryRead(&st, attempt, fc, node->simulation()->now())) {
          break;
        }
        begin_ms = node->simulation()->now();
        co_await node->simulation()->WaitFor(BackoffMs(attempt, *fc->policy));
        if (qo != nullptr) {
          qo->costs.backoff_ms += node->simulation()->now() - begin_ms;
          obs::CompleteSpan(qo, "backoff", obs::Component::kBackoff,
                            node->id(), begin_ms, node->simulation()->now());
        }
      }
      // The read succeeded; only now may the page become resident.
      // Inserting before the read (the old Touch semantics) left
      // fault-aborted reads cached, so the retry saw a phantom hit and
      // skipped the disk entirely.
      if (st.ok() && pool != nullptr) pool->Insert(page);
    }
    if (st.ok()) {
      obs::ArmHw(qo);
      st = co_await SelectCpu(node, step, plan, costs, kind);
    }
    if (!st.ok() || step == SelectStep::kProcess) {
      obs::PopSpan(qo, select_span, node->simulation()->now());
    }
    if (!st.ok() || step == SelectStep::kTuples) break;
    if (step == SelectStep::kLookup) {
      step = pool->Lookup(page) ? SelectStep::kProcess : SelectStep::kRead;
    } else if (step == SelectStep::kRead) {
      step = SelectStep::kProcess;
    } else if (pages.Next(plan, &page)) {
      obs::PushSpan(qo, "page", obs::Component::kQuery, node->id(),
                    node->simulation()->now());
      step = pool != nullptr ? SelectStep::kLookup : SelectStep::kRead;
    } else if (plan.tuples > 0) {
      step = SelectStep::kTuples;
    } else {
      break;
    }
  }

  // Ship qualifying tuples to the result site in tuple packets. The await
  // covers this interface's occupancy (delivery at the receiver proceeds
  // asynchronously), so the elapsed time is this query's network share.
  for (int64_t left = st.ok() && kind == SelectKind::kData ? plan.tuples : 0;
       left > 0; left -= node->params().tuples_per_packet) {
    begin_ms = node->simulation()->now();
    obs::ArmHw(qo);
    st = co_await node->network().Send(node->id(), result_node,
                                       PacketBytes(node->params(), left));
    if (!st.ok()) break;
    if (qo != nullptr) {
      qo->costs.network_ms += node->simulation()->now() - begin_ms;
    }
  }

  obs::PopSpan(qo, saved_span, node->simulation()->now());
  co_return st;
}

}  // namespace declust::engine
