// Disk model with elevator (SCAN) scheduling, per the paper: "The Disk
// Manager schedules disk requests to an attached disk according to the
// elevator algorithm [TP72]".
//
// Service time of a request for page (cylinder, slot):
//   seek     = 0 if the head is already on the cylinder,
//              settle + seek_factor * sqrt(|cylinder delta|) otherwise
//   latency  = Uniform(0, max_latency), skipped when the request is the
//              physically next page after the previously served one
//              (sequential access)
//   transfer = page_size / transfer_rate
//
// The 4000-instruction SCSI FIFO -> memory copy is *not* charged here; the
// requesting process issues it to the Cpu as a DMA request afterwards
// (Cpu::RunDma), which matches the paper's interrupt-driven accounting.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "src/common/arena.h"
#include "src/common/random.h"
#include "src/common/ring_buf.h"
#include "src/common/status.h"
#include "src/hw/params.h"
#include "src/obs/probe.h"
#include "src/sim/fault.h"
#include "src/sim/simulation.h"
#include "src/sim/stats_collector.h"

namespace declust::hw {

/// \brief Physical address of a disk page.
struct PageAddress {
  int cylinder = 0;
  int slot = 0;  // position within the cylinder

  friend bool operator==(const PageAddress&, const PageAddress&) = default;
};

/// \brief A physically contiguous run of disk pages: first address plus
/// count. At(i) reproduces the i-th page's address arithmetically, so a
/// full-extent scan plan holds one run — O(extents) memory — instead of one
/// PageAddress per page. Reading At(0..count) in order is byte-identical to
/// the expanded per-page list (the disk model's sequential detection sees
/// the same address sequence).
struct PageRun {
  PageAddress first;
  int64_t count = 0;
  int pages_per_cylinder = 0;

  PageAddress At(int64_t i) const {
    const int64_t abs =
        static_cast<int64_t>(first.cylinder) * pages_per_cylinder +
        first.slot + i;
    return {static_cast<int>(abs / pages_per_cylinder),
            static_cast<int>(abs % pages_per_cylinder)};
  }

  friend bool operator==(const PageRun&, const PageRun&) = default;
};

/// \brief One disk drive with a scheduled request queue.
class Disk {
 public:
  /// `faults` (optional, non-owning) injects failures for `node_id`; when
  /// null the disk never fails and no fault checks run on the hot path.
  /// `probe` (optional, non-owning) attributes completions to the query
  /// whose context is armed at submit time; null skips all obs work.
  Disk(sim::Simulation* sim, const HwParams* params, RandomStream rng,
       DiskSchedPolicy policy = DiskSchedPolicy::kElevator,
       sim::FaultInjector* faults = nullptr, int node_id = 0,
       obs::Probe* probe = nullptr);

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  struct [[nodiscard]] Awaiter {
    Disk* disk;
    PageAddress page;
    bool write;
    Status status;
    bool await_ready() noexcept {
      // Fail fast on a dead disk: no service time, error Status instead.
      if (disk->faults_ != nullptr &&
          !disk->faults_->DiskAvailable(disk->node_id_, disk->sim_->now())) {
        status = Status::Unavailable("disk down");
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h) {
      disk->Submit(h, page, write, &status);
    }
    // An rvalue into this awaiter, valid to the end of the co_await's
    // full-expression, so the awaiting frame holds no Status copy.
    Status&& await_resume() noexcept { return std::move(status); }
  };

  /// Reads one page; resumes the caller when the page is in the SCSI FIFO.
  /// The co_await yields a Status: OK, Unavailable (disk/node down), or
  /// IoError (injected transient error; retrying may succeed).
  /// The page is taken by reference, so an awaiting frame keeps no copy.
  Awaiter Read(const PageAddress& page) {
    return Awaiter{this, page, false, Status::OK()};
  }

  /// Writes one page.
  Awaiter Write(PageAddress page) { return Awaiter{this, page, true, Status::OK()}; }

  double busy_ms() const { return busy_ms_; }
  uint64_t completed() const { return completed_; }
  uint64_t sequential_hits() const { return sequential_hits_; }
  size_t queue_length() const { return queued_; }
  double Utilization() { return util_.Average(); }

 private:
  struct Request {
    std::coroutine_handle<> handle;
    PageAddress page;
    Status* status_out = nullptr;
    Request* next = nullptr;  // FIFO chain within a cylinder queue
    // The submit-time context, kept only when probe_ is set.
    obs::Probe::Submission* sub = nullptr;
    bool write = false;
  };
  // Every parked site holds one queued Request.
  static_assert(sizeof(Request) <= 48);

  /// One cylinder's FIFO of pending requests (elevator policy). Lives in a
  /// sorted flat vector — the pending-cylinder count is bounded by the
  /// queue depth, and a flat structure keeps the dispatch path free of
  /// per-request map-node allocations.
  struct CylinderQueue {
    int cylinder;
    Request* head;
    Request* tail;
  };

  void Submit(std::coroutine_handle<> h, PageAddress page, bool write,
              Status* status_out);
  void StartNext();
  void OnComplete();
  double ServiceTime(const Request& req);

  sim::Simulation* sim_;
  const HwParams* params_;
  RandomStream rng_;
  sim::FaultInjector* faults_;
  int node_id_;
  obs::Probe* probe_;

  DiskSchedPolicy policy_;
  // Elevator state: pending requests grouped by cylinder (sorted, pooled),
  // current head position and sweep direction. FCFS keeps arrival order
  // instead.
  std::vector<CylinderQueue> pending_;
  Arena arena_;
  SlabPool<Request> req_pool_{&arena_};
  SlabPool<obs::Probe::Submission> subs_{&arena_};
  RingBuf<Request> fcfs_queue_;
  size_t queued_ = 0;
  bool busy_ = false;
  // The disk serves one request at a time (busy_ guards it), so the request
  // in service lives here and the completion event captures only `this` —
  // keeping the callback inside SmallFn's inline buffer.
  Request current_{};
  double service_start_ = 0.0;
  int head_cylinder_ = 0;
  bool sweeping_up_ = true;
  PageAddress last_served_{-1, -1};
  bool has_last_served_ = false;

  double busy_ms_ = 0.0;
  uint64_t completed_ = 0;
  uint64_t sequential_hits_ = 0;
  sim::UtilizationMonitor util_;
};

}  // namespace declust::hw
