#include "src/hw/network.h"

#include <cassert>
#include <memory>
#include <type_traits>
#include <utility>

namespace declust::hw {

NetworkInterface::NetworkInterface(sim::Simulation* sim,
                                   const HwParams* params, int node_id,
                                   obs::Probe* probe)
    : sim_(sim),
      params_(params),
      node_id_(node_id),
      probe_(probe),
      util_(sim) {}

void NetworkInterface::Enqueue(Work w) {
  if (probe_ != nullptr) w.enqueue_ms = sim_->now();
  queue_.push_back(std::move(w));
  if (!busy_) StartNext();
}

void NetworkInterface::StartNext() {
  assert(!busy_);
  if (queue_.empty()) {
    util_.SetBusy(0.0);
    return;
  }
  current_ = std::move(queue_.front());
  queue_.pop_front();
  busy_ = true;
  util_.SetBusy(1.0);
  busy_ms_ += current_.ms;
  service_start_ = sim_->now();
  sim_->ScheduleAfter(current_.ms, [this] { OnComplete(); });
}

void NetworkInterface::OnComplete() {
  Work w = std::move(current_);  // StartNext below reuses current_
  busy_ = false;
  ++completed_;
  if (probe_ != nullptr) {
    probe_->OnNetComplete(w.octx, node_id_, w.rx, w.enqueue_ms,
                          service_start_, sim_->now());
  }
  if (w.handle) {
    sim_->ScheduleResume(sim_->now(), w.handle);
  } else if (w.rx) {
    w.transfer->OnReceived();
  } else {
    w.transfer->OnSent();
  }
  StartNext();
}

Network::Network(sim::Simulation* sim, const HwParams* params, int nodes,
                 sim::FaultInjector* faults, obs::Probe* probe)
    : sim_(sim),
      params_(params),
      faults_(faults),
      probe_(probe),
      transfer_pool_(&arena_) {
  interfaces_.reserve(static_cast<size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    interfaces_.push_back(
        std::make_unique<NetworkInterface>(sim, params, i, probe));
  }
}

// A Network destroyed mid-run leaves its in-flight transfers to the arena.
static_assert(std::is_trivially_destructible_v<Transfer>);

void Network::TransferAwaiter::await_suspend(std::coroutine_handle<> h) {
  Network* n = net;
  Transfer* t = n->transfer_pool_.New();
  t->net = n;
  t->sender = h;
  t->dst = dst;
  t->bytes = bytes;
  t->local = (src == dst);
  // await_suspend runs inside the sending coroutine, so the armed context
  // is the sender's; the receiver-side occupancy (async, possibly much
  // later) reuses it so its span stays attributed to the same query.
  t->octx = n->probe_ != nullptr ? n->probe_->context() : obs::Probe::Context{};
  t->deliver = deliver;
  ++n->packets_sent_;
  // Local send (src == dst) still pays one interface pass, modelling the
  // loopback copy, then delivers.
  n->interface(src).OccupyFor(t, /*rx=*/false);
}

void Transfer::OnSent() {
  Network* n = net;
  sim::Simulation* sim = n->sim_;
  // The packet has left the sender: resume the sending process and start
  // the receiver-side occupancy.
  sim->ScheduleResume(sim->now(), sender);
  if (local) {
    Finish(Status::OK());
  } else if (n->faults_ != nullptr && !n->faults_->NodeUp(dst, sim->now())) {
    // Receiver died while the packet was on the wire; the delivery sink
    // still fires (with an error) so waiters never hang.
    Finish(Status::Unavailable("receiver node down"));
  } else {
    n->interface(dst).OccupyFor(this, /*rx=*/true);
  }
}

void Transfer::OnReceived() {
  Network* n = net;
  if (n->faults_ != nullptr && !n->faults_->NodeUp(dst, n->sim_->now())) {
    Finish(Status::Unavailable("receiver node down"));
  } else {
    Finish(Status::OK());
  }
}

void Transfer::Finish(const Status& st) {
  // Release the pooled state before delivering: the sink may launch a new
  // transfer that reuses it.
  const DeliverySink sink = deliver;
  net->transfer_pool_.Delete(this);
  sink(st);
}

}  // namespace declust::hw
