#include "src/hw/disk.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>

namespace declust::hw {

Disk::Disk(sim::Simulation* sim, const HwParams* params, RandomStream rng,
           DiskSchedPolicy policy, sim::FaultInjector* faults, int node_id,
           obs::Probe* probe)
    : sim_(sim),
      params_(params),
      rng_(rng),
      faults_(faults),
      node_id_(node_id),
      probe_(probe),
      policy_(policy),
      util_(sim) {}

void Disk::Submit(std::coroutine_handle<> h, PageAddress page, bool write,
                  Status* status_out) {
  Request req{h, page, status_out, nullptr, nullptr, write};
  if (probe_ != nullptr) {
    // await_suspend runs inside the awaiting coroutine, so the armed
    // context belongs to the query issuing this request.
    req.sub = subs_.New(
        obs::Probe::Submission{probe_->context(), sim_->now(), 0.0});
  }
  if (policy_ == DiskSchedPolicy::kFcfs) {
    fcfs_queue_.push_back(req);
  } else {
    auto it = std::lower_bound(
        pending_.begin(), pending_.end(), page.cylinder,
        [](const CylinderQueue& q, int cyl) { return q.cylinder < cyl; });
    if (it == pending_.end() || it->cylinder != page.cylinder) {
      it = pending_.insert(it, CylinderQueue{page.cylinder, nullptr, nullptr});
    }
    Request* node = req_pool_.New(req);
    if (it->tail != nullptr) {
      it->tail->next = node;
    } else {
      it->head = node;
    }
    it->tail = node;
  }
  ++queued_;
  if (!busy_) StartNext();
}

void Disk::StartNext() {
  assert(!busy_);
  if (queued_ == 0) {
    util_.SetBusy(0.0);
    return;
  }

  Request req;
  if (policy_ == DiskSchedPolicy::kFcfs) {
    req = fcfs_queue_.front();
    fcfs_queue_.pop_front();
  } else {
    // Elevator: continue the sweep; reverse at the end.
    const auto by_cyl = [](const CylinderQueue& q, int cyl) {
      return q.cylinder < cyl;
    };
    std::vector<CylinderQueue>::iterator it;
    if (sweeping_up_) {
      it = std::lower_bound(pending_.begin(), pending_.end(),
                            head_cylinder_, by_cyl);
      if (it == pending_.end()) {
        sweeping_up_ = false;
        it = std::prev(pending_.end());
      }
    } else {
      // Largest cylinder <= head.
      it = std::lower_bound(pending_.begin(), pending_.end(),
                            head_cylinder_ + 1, by_cyl);
      if (it == pending_.begin()) {
        sweeping_up_ = true;
        // it already points at the smallest pending cylinder.
      } else {
        it = std::prev(it);
      }
    }
    Request* node = it->head;
    req = *node;
    it->head = node->next;
    if (it->head == nullptr) {
      it->tail = nullptr;
      pending_.erase(it);
    }
    req_pool_.Delete(node);
    req.next = nullptr;
  }
  --queued_;

  busy_ = true;
  util_.SetBusy(1.0);
  double service = ServiceTime(req);
  if (faults_ != nullptr) {
    service *= faults_->SlowFactor(node_id_, sim_->now());
  }
  busy_ms_ += service;
  head_cylinder_ = req.page.cylinder;
  current_ = req;
  service_start_ = sim_->now();
  sim_->ScheduleAfter(service, [this] { OnComplete(); });
}

double Disk::ServiceTime(const Request& req) {
  double t = 0.0;
  const int delta = std::abs(req.page.cylinder - head_cylinder_);
  const bool sequential = has_last_served_ && !req.write &&
                          req.page.cylinder == last_served_.cylinder &&
                          req.page.slot == last_served_.slot + 1;
  if (sequential) {
    ++sequential_hits_;
    // Head is in position and the page passes under it next: transfer only.
  } else {
    if (delta > 0) {
      t += params_->disk_settle_ms +
           params_->disk_seek_factor_ms * std::sqrt(static_cast<double>(delta));
    }
    t += rng_.UniformDouble(0.0, params_->disk_max_latency_ms);
  }
  t += params_->PageTransferMs();
  return t;
}

void Disk::OnComplete() {
  const Request req = current_;  // StartNext below reuses current_
  busy_ = false;
  last_served_ = req.page;
  has_last_served_ = true;
  ++completed_;
  if (faults_ != nullptr && req.status_out != nullptr) {
    // A request already in flight when the disk dies still burns its service
    // time (the controller only discovers the failure at completion).
    if (!faults_->DiskAvailable(node_id_, sim_->now())) {
      *req.status_out = Status::Unavailable("disk failed during request");
    } else if (faults_->MaybeInjectIoError(node_id_, sim_->now())) {
      *req.status_out = Status::IoError("transient disk error");
    }
  }
  if (req.sub != nullptr) {
    probe_->OnDiskComplete(req.sub->ctx, node_id_, req.write,
                           req.sub->submit_ms, service_start_, sim_->now());
    subs_.Delete(req.sub);
  }
  sim_->ScheduleResume(sim_->now(), req.handle);
  StartNext();
}

}  // namespace declust::hw
