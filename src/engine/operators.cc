#include "src/engine/operators.h"

#include <algorithm>
#include <cstdint>

namespace declust::engine {

namespace {

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

}  // namespace

HwAwaiter SelectOp::Wait(const SelectSite& at) const {
  hw::Node& node = *at.node;
  switch (hw_) {
    case Hw::kRead:
      return node.disk().Read(page_);
    case Hw::kBackoff:
      return HwAwaiter::Timer{
          node.simulation()->WaitFor(BackoffMs(attempt_, *at.fc->policy)),
          Status::OK()};
    case Hw::kSend:
      // A full packet or the rest.
      return node.network().Send(
          node.id(), at.result_node,
          static_cast<int>(
              std::min<int64_t>(left_, node.params().tuples_per_packet) *
              node.params().tuple_size_bytes));
    case Hw::kCpu:
    case Hw::kNone:
      break;
  }
  const OperatorCosts& costs = *at.costs;
  switch (step_) {
    case Step::kActivate:
      return node.cpu().Run(costs.startup_instructions);
    case Step::kLookup:
      return node.cpu().Run(costs.buffer_lookup_instructions);
    case Step::kRead:
      return node.cpu().RunDma(node.params().scsi_transfer_instructions);
    case Step::kProcess:
      break;
    case Step::kTuples:
      // An aux lookup only extracts (tuple id, processor) pairs.
      return node.cpu().Run(
          at.kind == SelectKind::kData
              ? at.plan->tuples * costs.per_tuple_instructions
              : at.plan->tuples * costs.per_tuple_instructions / 4);
  }
  return node.cpu().Run(node.params().read_page_instructions);
}

bool SelectOp::Ask(const SelectSite& at, Hw hw) {
  if (hw != Hw::kBackoff) obs::ArmHw(at.qo);
  hw_ = hw;
  return true;
}

void SelectOp::Start(const SelectSite& at) {
  saved_span_ = at.qo != nullptr ? at.qo->span : 0;
  if (at.kind == SelectKind::kData) {
    obs::PushSpan(at.qo, "select", obs::Component::kQuery, at.node->id(),
                  at.node->simulation()->now());
  }
  // The page spans' parent: the select span when one opened.
  select_span_ = at.qo != nullptr ? at.qo->span : 0;
  page_pos_ = 0;
  run_pos_ = 0;
  step_ = Step::kActivate;
  Ask(at, Hw::kCpu);
}

bool SelectOp::Next(const SelectSite& at, Status* st) {
  const double now = at.node->simulation()->now();
  switch (hw_) {
    case Hw::kRead:
      if (!st->ok() && RetryRead(st, attempt_, at.fc, now)) {
        begin_ms_ = now;
        return Ask(at, Hw::kBackoff);
      }
      if (!st->ok()) return EndStep(at, *st);
      // The read succeeded; only now may the page become resident.
      // Inserting before the read (the old Touch semantics) left
      // fault-aborted reads cached, so the retry saw a phantom hit and
      // skipped the disk entirely.
      if (at.pool != nullptr) at.pool->Insert(page_);
      return Ask(at, Hw::kCpu);  // the read's DMA
    case Hw::kBackoff:
      if (at.qo != nullptr) {
        at.qo->costs.backoff_ms += now - begin_ms_;
        obs::CompleteSpan(at.qo, "backoff", obs::Component::kBackoff,
                          at.node->id(), begin_ms_, now);
      }
      ++attempt_;
      return Ask(at, Hw::kRead);
    case Hw::kCpu:
      return EndStep(at, *st);
    case Hw::kSend:
      if (!st->ok()) {
        left_ = 0;
      } else {
        if (at.qo != nullptr) at.qo->costs.network_ms += now - begin_ms_;
        left_ -= at.node->params().tuples_per_packet;
      }
      return NextPacket(at);
    case Hw::kNone:
      break;
  }
  return false;
}

bool SelectOp::EndStep(const SelectSite& at, const Status& st) {
  // Index pages are random reads; data pages are sequential for clustered
  // scans and random otherwise (the addresses in the plan and the elevator
  // model decide). A page's steps are the pool lookup (pooled nodes only),
  // the disk read and its DMA, then processing; a pool hit skips the read.
  const AccessPlan& plan = *at.plan;
  const double now = at.node->simulation()->now();
  if (!st.ok() || step_ == Step::kProcess) {
    obs::PopSpan(at.qo, select_span_, now);
  }
  left_ = 0;
  if (!st.ok()) return NextPacket(at);
  if (step_ == Step::kTuples) {
    // Ship qualifying tuples to the result site in tuple packets. Each send
    // covers this interface's occupancy (delivery at the receiver proceeds
    // asynchronously), so its elapsed time is this query's network share.
    if (at.kind == SelectKind::kData) left_ = plan.tuples;
    return NextPacket(at);
  }
  if (step_ == Step::kLookup) {
    step_ = at.pool->Lookup(page_) ? Step::kProcess : Step::kRead;
  } else if (step_ == Step::kRead) {
    step_ = Step::kProcess;
  } else if (page_pos_ < plan.pages().size() ||
             run_pos_ < plan.data_run.count) {
    // Pages in read order: index pages, explicit data pages, then the run
    // expanded arithmetically, the address sequence per-page plans gave.
    page_ = page_pos_ < plan.pages().size() ? plan.pages()[page_pos_++]
                                            : plan.data_run.At(run_pos_++);
    obs::PushSpan(at.qo, "page", obs::Component::kQuery, at.node->id(), now);
    step_ = at.pool != nullptr ? Step::kLookup : Step::kRead;
  } else if (plan.tuples > 0) {
    step_ = Step::kTuples;
  } else {
    return NextPacket(at);
  }
  if (step_ == Step::kRead) {
    attempt_ = 0;
    return Ask(at, Hw::kRead);
  }
  return Ask(at, Hw::kCpu);
}

bool SelectOp::NextPacket(const SelectSite& at) {
  if (left_ > 0) {
    begin_ms_ = at.node->simulation()->now();
    return Ask(at, Hw::kSend);
  }
  obs::PopSpan(at.qo, saved_span_, at.node->simulation()->now());
  hw_ = Hw::kNone;
  return false;
}

}  // namespace declust::engine
