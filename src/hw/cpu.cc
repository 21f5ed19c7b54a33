#include "src/hw/cpu.h"

#include <cassert>

namespace declust::hw {

Cpu::Cpu(sim::Simulation* sim, const HwParams* params,
         sim::FaultInjector* faults, int node_id, obs::Probe* probe)
    : sim_(sim),
      params_(params),
      faults_(faults),
      node_id_(node_id),
      probe_(probe),
      util_(sim) {}

void Cpu::Submit(std::coroutine_handle<> h, double ms, bool dma,
                 Status* status_out) {
  if (faults_ != nullptr) {
    ms *= faults_->SlowFactor(node_id_, sim_->now());
  }
  Job job{h, ms, status_out, nullptr, dma};
  if (probe_ != nullptr) {
    // await_suspend runs inside the awaiting coroutine, so the armed
    // context belongs to the query issuing this job.
    job.sub = subs_.New(
        obs::Probe::Submission{probe_->context(), sim_->now(), ms});
  }
  if (dma) {
    dma_queue_.push_back(std::move(job));
    if (state_ == State::kRunningNormal) {
      // Preempt the regular request in service: bank its progress and
      // cancel its pending completion.
      const double consumed = sim_->now() - service_start_;
      busy_ms_ += consumed;
      current_.remaining_ms -= consumed;
      if (current_.remaining_ms < 0) current_.remaining_ms = 0;
      sim_->Cancel(completion_event_);
      assert(!has_paused_normal_);
      paused_normal_ = current_;
      has_paused_normal_ = true;
      state_ = State::kIdle;
      Dispatch();
    } else if (state_ == State::kIdle) {
      Dispatch();
    }
    // If a DMA request is already in service, this one waits FCFS behind it.
  } else {
    normal_queue_.push_back(std::move(job));
    if (state_ == State::kIdle) Dispatch();
  }
}

void Cpu::Dispatch() {
  assert(state_ == State::kIdle);
  if (!dma_queue_.empty()) {
    Job job = std::move(dma_queue_.front());
    dma_queue_.pop_front();
    StartDma(job);
    return;
  }
  if (has_paused_normal_) {
    Job job = paused_normal_;
    has_paused_normal_ = false;
    StartNormal(job);
    return;
  }
  if (!normal_queue_.empty()) {
    Job job = std::move(normal_queue_.front());
    normal_queue_.pop_front();
    StartNormal(job);
    return;
  }
  util_.SetBusy(0.0);
}

void Cpu::StartNormal(Job job) {
  state_ = State::kRunningNormal;
  current_ = job;
  service_start_ = sim_->now();
  util_.SetBusy(1.0);
  completion_event_ =
      sim_->ScheduleAfter(job.remaining_ms, [this] { OnNormalComplete(); });
}

void Cpu::StartDma(Job job) {
  state_ = State::kRunningDma;
  current_ = job;
  service_start_ = sim_->now();
  util_.SetBusy(1.0);
  completion_event_ =
      sim_->ScheduleAfter(job.remaining_ms, [this] { OnDmaComplete(); });
}

void Cpu::OnNormalComplete() {
  busy_ms_ += sim_->now() - service_start_;
  ++completed_;
  const Job done = current_;
  state_ = State::kIdle;
  if (faults_ != nullptr && done.status_out != nullptr &&
      !faults_->NodeUp(node_id_, sim_->now())) {
    *done.status_out = Status::Unavailable("node crashed during request");
  }
  if (done.sub != nullptr) {
    probe_->OnCpuComplete(done.sub->ctx, node_id_, /*dma=*/false,
                          done.sub->submit_ms, done.sub->demand_ms,
                          sim_->now());
    subs_.Delete(done.sub);
  }
  sim_->ScheduleResume(sim_->now(), done.handle);
  Dispatch();
}

void Cpu::OnDmaComplete() {
  busy_ms_ += sim_->now() - service_start_;
  ++completed_;
  const Job done = current_;
  state_ = State::kIdle;
  if (faults_ != nullptr && done.status_out != nullptr &&
      !faults_->NodeUp(node_id_, sim_->now())) {
    *done.status_out = Status::Unavailable("node crashed during request");
  }
  if (done.sub != nullptr) {
    probe_->OnCpuComplete(done.sub->ctx, node_id_, /*dma=*/true,
                          done.sub->submit_ms, done.sub->demand_ms,
                          sim_->now());
    subs_.Delete(done.sub);
  }
  sim_->ScheduleResume(sim_->now(), done.handle);
  Dispatch();
}

}  // namespace declust::hw
