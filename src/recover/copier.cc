#include "src/recover/copier.h"

#include <algorithm>

namespace declust::recover {

void PageCopier::Arm(sim::Simulation* sim, hw::Machine* machine,
                     obs::Probe* probe) {
  sim_ = sim;
  machine_ = machine;
  probe_ = probe;
  resume_trigger_ = std::make_unique<sim::Trigger>(sim);
}

void PageCopier::Pause() {
  if (paused_) return;
  paused_ = true;
  resume_trigger_->Reset();
}

void PageCopier::Resume() {
  if (!paused_) return;
  paused_ = false;
  resume_trigger_->Fire();
}

sim::Task<Status> PageCopier::CopyPages(
    const std::vector<engine::SystemCatalog::RebuildPage>& pages,
    int dst_node, double rate_mb_per_sec, int batch_pages, int64_t* copied) {
  const double page_bytes =
      static_cast<double>(machine_->params().disk_page_size_bytes);
  // MB/s -> bytes per ms; 0 disables the throttle.
  const double throttle_bytes_per_ms =
      rate_mb_per_sec > 0.0 ? rate_mb_per_sec * 1e6 / 1000.0 : 0.0;
  size_t i = 0;
  while (i < pages.size()) {
    // Pause gate: park at the batch boundary until resumed (the trigger
    // wakes every parked copy at the same instant; FIFO order keeps the
    // interleaving deterministic).
    while (paused_) co_await resume_trigger_->Wait();
    const double batch_begin = sim_->now();
    int in_batch = 0;
    for (; i < pages.size() && in_batch < batch_pages; ++i, ++in_batch) {
      const auto& page = pages[i];
      DECLUST_CO_RETURN_NOT_OK(
          co_await Copy(page.src_node, page.src, dst_node, page.dst));
      ++*copied;
    }
    if (throttle_bytes_per_ms > 0.0 && in_batch > 0) {
      const double min_ms = in_batch * page_bytes / throttle_bytes_per_ms;
      const double elapsed = sim_->now() - batch_begin;
      if (elapsed < min_ms) co_await sim_->WaitFor(min_ms - elapsed);
    }
  }
  co_return Status::OK();
}

sim::Task<Status> PageCopier::Copy(int src_node, hw::PageAddress src_page,
                                   int dst_node, hw::PageAddress dst_page) {
  const hw::HwParams& hp = machine_->params();
  hw::Node& src = machine_->node(src_node);
  hw::Node& dst = machine_->node(dst_node);
  // The hardware captures the probe context at submit time; foreground
  // queries re-arm it before each of their awaits, so a background submit
  // made with a stale context would charge its I/O to an unrelated query
  // (and break the response-tiling identity). Cleared before every submit.
  const auto background = [this] {
    if (probe_ != nullptr) probe_->ClearContext();
  };
  for (int attempt = 0;; ++attempt) {
    // Contention budget: reserve the page's bytes on the source node before
    // the read (retries reserve again — a retried read is real disk
    // traffic), waiting out whatever delay keeps the node under its cap.
    if (budget_ != nullptr) {
      const double delay =
          budget_->Reserve(src_node, sim_->now(), hp.disk_page_size_bytes);
      if (delay > 0.0) co_await sim_->WaitFor(delay);
    }
    // Read the source page off the surviving copy's disk, pay the SCSI DMA
    // interrupt on the source CPU...
    background();
    Status st = co_await src.disk().Read(src_page);
    if (st.ok()) {
      background();
      st = co_await src.cpu().RunDma(hp.scsi_transfer_instructions);
    }
    // ...ship it over the interconnect (a page may span several packets on
    // a small-MTU configuration), waiting for delivery before writing...
    int remaining = hp.disk_page_size_bytes;
    while (st.ok() && remaining > 0) {
      const int bytes = std::min(remaining, hp.max_packet_bytes);
      remaining -= bytes;
      hw::DeliveryLatch latch(sim_);
      background();
      st = co_await machine_->network().Send(src_node, dst_node, bytes,
                                             latch.sink());
      if (st.ok()) {
        co_await latch.delivered.Wait();
        st = latch.status;
      }
    }
    // ...then the DMA into the destination node's memory and the disk write.
    if (st.ok()) {
      background();
      st = co_await dst.cpu().RunDma(hp.scsi_transfer_instructions);
    }
    if (st.ok() && budget_ != nullptr) {
      const double delay =
          budget_->Reserve(dst_node, sim_->now(), hp.disk_page_size_bytes);
      if (delay > 0.0) co_await sim_->WaitFor(delay);
    }
    if (st.ok()) {
      background();
      st = co_await dst.disk().Write(dst_page);
    }
    if (st.ok()) co_return st;
    if (!st.IsIoError() || attempt >= kMaxIoRetries) co_return st;
    co_await sim_->WaitFor(kRetryBackoffMs);
  }
}

std::vector<PhaseWindow> PhaseLedger::Windows(
    const std::vector<double>& bounds) const {
  const double end_ms = bounds.back();
  std::vector<PhaseWindow> out(completed_.size());
  for (size_t p = 0; p < out.size(); ++p) {
    PhaseWindow& w = out[p];
    w.start_ms = std::clamp(bounds[p], measure_start_ms_, end_ms);
    w.end_ms = std::clamp(bounds[p + 1], measure_start_ms_, end_ms);
    if (w.end_ms < w.start_ms) w.end_ms = w.start_ms;
    w.completed = completed_[p];
    w.response_sum_ms = response_sum_ms_[p];
  }
  return out;
}

}  // namespace declust::recover
