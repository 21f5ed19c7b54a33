// CPU model: FCFS non-preemptive service for regular requests, except that
// DMA byte transfers from/to the disk's SCSI FIFO interrupt (preempt) the
// current regular request, exactly as in the paper's Gamma model ("The CPU
// module enforces a FCFS non-preemptive scheduling paradigm on all requests,
// except for byte transfers to/from the disk's FIFO buffer").
#pragma once

#include <coroutine>
#include <cstdint>

#include "src/common/arena.h"
#include "src/common/ring_buf.h"
#include "src/common/status.h"
#include "src/hw/params.h"
#include "src/obs/probe.h"
#include "src/sim/fault.h"
#include "src/sim/simulation.h"
#include "src/sim/stats_collector.h"

namespace declust::hw {

/// \brief A single processor's CPU.
///
/// Regular work: `co_await cpu.Run(instructions)` or RunMs(ms).
/// DMA interrupt work: `co_await cpu.RunDma(instructions)` — preempts the
/// regular request in service; the preempted request resumes afterwards
/// with its remaining service demand intact (preempt-resume).
class Cpu {
 public:
  /// `faults` (optional, non-owning) injects failures for `node_id`; when
  /// null the CPU never fails and no fault checks run on the hot path.
  /// `probe` (optional, non-owning) attributes completions to the query
  /// whose context is armed at submit time; null skips all obs work.
  Cpu(sim::Simulation* sim, const HwParams* params,
      sim::FaultInjector* faults = nullptr, int node_id = 0,
      obs::Probe* probe = nullptr);

  Cpu(const Cpu&) = delete;
  Cpu& operator=(const Cpu&) = delete;

  struct [[nodiscard]] Awaiter {
    Cpu* cpu;
    double ms;
    bool dma;
    Status status;
    bool await_ready() noexcept {
      // Fail fast when the node is crashed: no service, error Status.
      if (cpu->faults_ != nullptr &&
          !cpu->faults_->NodeUp(cpu->node_id_, cpu->sim_->now())) {
        status = Status::Unavailable("node down");
        return true;
      }
      return ms <= 0.0;
    }
    void await_suspend(std::coroutine_handle<> h) {
      cpu->Submit(h, ms, dma, &status);
    }
    // An rvalue into this awaiter, valid to the end of the co_await's
    // full-expression, so the awaiting frame holds no Status copy.
    Status&& await_resume() noexcept { return std::move(status); }
  };

  /// Consumes `instructions` of CPU as a regular FCFS request.
  Awaiter Run(int64_t instructions) {
    return Awaiter{this, params_->InstrMs(instructions), false, Status::OK()};
  }

  /// Consumes `ms` milliseconds of CPU as a regular FCFS request.
  Awaiter RunMs(double ms) { return Awaiter{this, ms, false, Status::OK()}; }

  /// Consumes CPU as a preempting DMA/interrupt request.
  Awaiter RunDma(int64_t instructions) {
    return Awaiter{this, params_->InstrMs(instructions), true, Status::OK()};
  }

  /// Busy time accumulated so far (ms).
  double busy_ms() const { return busy_ms_; }
  /// Requests fully served so far.
  uint64_t completed() const { return completed_; }
  /// Current queue length including the request in service.
  size_t load() const {
    return normal_queue_.size() + dma_queue_.size() + (InService() ? 1u : 0u);
  }
  /// Average number of busy units (0/1) over simulated time so far.
  double Utilization() { return util_.Average(); }

 private:
  struct Job {
    std::coroutine_handle<> handle;
    double remaining_ms;
    Status* status_out = nullptr;
    // The submit-time context and full (slow-factor scaled) demand, kept
    // only when probe_ is set.
    obs::Probe::Submission* sub = nullptr;
    bool dma = false;
  };
  static_assert(sizeof(Job) <= 48);

  enum class State { kIdle, kRunningNormal, kRunningDma };

  bool InService() const { return state_ != State::kIdle; }

  void Submit(std::coroutine_handle<> h, double ms, bool dma,
              Status* status_out);
  void StartNormal(Job job);
  void StartDma(Job job);
  void OnNormalComplete();
  void OnDmaComplete();
  void Dispatch();

  sim::Simulation* sim_;
  const HwParams* params_;
  sim::FaultInjector* faults_;
  int node_id_;
  obs::Probe* probe_;

  State state_ = State::kIdle;
  Job current_{};                  // request in service (normal or DMA)
  bool has_paused_normal_ = false;
  Job paused_normal_{};            // preempted regular request
  double service_start_ = 0.0;
  sim::EventId completion_event_ = 0;

  RingBuf<Job> normal_queue_;
  RingBuf<Job> dma_queue_;
  Arena subs_arena_;
  SlabPool<obs::Probe::Submission> subs_{&subs_arena_};

  double busy_ms_ = 0.0;
  uint64_t completed_ = 0;
  sim::UtilizationMonitor util_;
};

}  // namespace declust::hw
