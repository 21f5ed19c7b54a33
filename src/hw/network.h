// Network interface and fully-connected interconnect model.
//
// Per the paper: "The Network Interface manager enforces a FCFS protocol for
// access to the global communications network. The Network module currently
// models a fully connected network."
//
// A packet of b bytes occupies the sender's interface for PacketSendMs(b),
// then occupies the receiver's interface for the same duration before being
// delivered. The interconnect itself adds no contention (fully connected).
//
// Allocation: each in-flight transfer's relay state (sender handle, target,
// delivery sink) lives in a slab-pooled Transfer, so the steady-state packet
// path performs no heap allocations: interface work items and completion
// callbacks carry a single pointer, and a delivery sink is a plain function
// plus its context.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/arena.h"
#include "src/common/ring_buf.h"
#include "src/common/status.h"
#include "src/hw/params.h"
#include "src/obs/probe.h"
#include "src/sim/fault.h"
#include "src/sim/simulation.h"
#include "src/sim/stats_collector.h"
#include "src/sim/trigger.h"

namespace declust::hw {

class Network;

/// \brief Where a transfer reports its delivery Status: a plain function and
/// its context (two words, no ownership). The default sink ignores delivery.
struct DeliverySink {
  void (*fn)(void* ctx, const Status& st) = nullptr;
  void* ctx = nullptr;

  void operator()(const Status& st) const {
    if (fn != nullptr) fn(ctx, st);
  }
};

/// \brief Waits for one transfer's delivery: its sink records the Status
/// and fires the trigger. Lives on the waiting coroutine's frame.
struct DeliveryLatch {
  explicit DeliveryLatch(sim::Simulation* sim) : delivered(sim) {}

  sim::Trigger delivered;
  Status status;

  DeliverySink sink() { return {&Deliver, this}; }

 private:
  static void Deliver(void* ctx, const Status& st) {
    auto* latch = static_cast<DeliveryLatch*>(ctx);
    latch->status = st;
    latch->delivered.Fire();
  }
};

/// \brief Relay state of one in-flight transfer, slab-pooled by its Network.
/// It owns nothing, so a Network destroyed mid-run simply drops the
/// transfers still in flight: their sinks never fire.
struct Transfer {
  Network* net;
  std::coroutine_handle<> sender;
  int dst;
  int bytes;
  bool local;
  obs::Probe::Context octx;
  DeliverySink deliver;

  /// The sender interface is done: resume the sender, start the receive.
  void OnSent();
  /// The receiver interface is done: deliver.
  void OnReceived();
  /// Releases the pooled state, then fires the sink with `st`.
  void Finish(const Status& st);
};

/// \brief One node's FCFS network interface (both directions share it).
class NetworkInterface {
 public:
  /// `probe` (optional, non-owning) emits an occupancy span per completed
  /// unit of work; null skips all obs work.
  NetworkInterface(sim::Simulation* sim, const HwParams* params,
                   int node_id = 0, obs::Probe* probe = nullptr);

  NetworkInterface(const NetworkInterface&) = delete;
  NetworkInterface& operator=(const NetworkInterface&) = delete;

  struct [[nodiscard]] SendAwaiter {
    NetworkInterface* ni;
    int bytes;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      Work w{h, nullptr, ni->params_->PacketSendMs(bytes), {}, 0.0, false};
      if (ni->probe_ != nullptr) w.octx = ni->probe_->context();
      ni->Enqueue(std::move(w));
    }
    void await_resume() const noexcept {}
  };

  /// Awaitable: occupy this interface for the send time of `bytes`.
  SendAwaiter Occupy(int bytes) { return SendAwaiter{this, bytes}; }

  /// Fire-and-forget: occupy the interface for the packet time of
  /// `t->bytes`, then advance `t` — its receive leg when `rx`, else its send
  /// leg. The occupancy span is tagged with `t->octx`, the context captured
  /// at the original submit: this runs from completion callbacks, where the
  /// probe's live context belongs to some other query.
  void OccupyFor(Transfer* t, bool rx) {
    Enqueue(Work{nullptr, t, params_->PacketSendMs(t->bytes), t->octx, 0.0,
                 rx});
  }

  double busy_ms() const { return busy_ms_; }
  uint64_t completed() const { return completed_; }
  size_t queue_length() const { return queue_.size(); }
  double Utilization() { return util_.Average(); }

 private:
  struct Work {
    std::coroutine_handle<> handle;  // exactly one of handle/transfer set
    Transfer* transfer;
    double ms;
    obs::Probe::Context octx;  // captured at submit when probe_ is set
    double enqueue_ms = 0.0;
    bool rx = false;  // receiver-side occupancy (span label only)
  };

  void Enqueue(Work w);
  void StartNext();
  void OnComplete();

  sim::Simulation* sim_;
  const HwParams* params_;
  int node_id_;
  obs::Probe* probe_;
  RingBuf<Work> queue_;
  bool busy_ = false;
  // The interface serves one unit of work at a time (busy_ guards it), so
  // it lives here and the completion event captures only `this` — keeping
  // the callback inside SmallFn's inline buffer.
  Work current_{};
  double service_start_ = 0.0;
  double busy_ms_ = 0.0;
  uint64_t completed_ = 0;
  sim::UtilizationMonitor util_;
};

/// \brief The fully-connected interconnect: a collection of interfaces plus
/// a convenience transfer primitive.
class Network {
 public:
  /// `faults` (optional, non-owning) makes transfers to/from crashed nodes
  /// fail; when null the network is lossless. `probe` (optional,
  /// non-owning) tags interface occupancy spans; null skips all obs work.
  Network(sim::Simulation* sim, const HwParams* params, int nodes,
          sim::FaultInjector* faults = nullptr, obs::Probe* probe = nullptr);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  NetworkInterface& interface(int node) { return *interfaces_[node]; }
  int nodes() const { return static_cast<int>(interfaces_.size()); }

  /// \brief Full transfer: occupies the sender interface (awaited), then the
  /// receiver interface, then runs `deliver`. The caller resumes as soon as
  /// the packet leaves the sender (asynchronous delivery).
  ///
  /// The awaited value is the send-side Status: Unavailable when either end
  /// is down at submit time (fail fast, `deliver` is never invoked), OK
  /// otherwise. Once the send side succeeds, `deliver` is invoked exactly
  /// once with the delivery Status — Unavailable if the receiver crashed
  /// while the packet was in flight, OK on delivery. A Network destroyed
  /// with the packet still in flight never fires it.
  ///
  /// Usage:
  ///   DeliveryLatch latch(sim);
  ///   Status st = co_await net.Send(src, dst, bytes, latch.sink());
  ///   if (st.ok()) { co_await latch.delivered.Wait(); st = latch.status; }
  struct [[nodiscard]] TransferAwaiter {
    Network* net;
    int src;
    int dst;
    int bytes;
    DeliverySink deliver;
    Status status;

    bool await_ready() noexcept {
      if (net->faults_ != nullptr) {
        const double now = net->sim_->now();
        if (!net->faults_->NodeUp(src, now)) {
          status = Status::Unavailable("sender node down");
          return true;
        }
        if (!net->faults_->NodeUp(dst, now)) {
          status = Status::Unavailable("receiver node down");
          return true;
        }
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<> h);
    // An rvalue into this awaiter, valid to the end of the co_await's
    // full-expression, so the awaiting frame holds no Status copy.
    Status&& await_resume() noexcept { return std::move(status); }
  };

  TransferAwaiter Send(int src, int dst, int bytes, DeliverySink deliver) {
    return TransferAwaiter{this, src, dst, bytes, deliver, Status::OK()};
  }
  /// Send whose delivery nobody waits for.
  TransferAwaiter Send(int src, int dst, int bytes) {
    return TransferAwaiter{this, src, dst, bytes, {}, Status::OK()};
  }

  uint64_t packets_sent() const { return packets_sent_; }

 private:
  friend struct TransferAwaiter;
  friend struct Transfer;

  sim::Simulation* sim_;
  const HwParams* params_;
  sim::FaultInjector* faults_;
  obs::Probe* probe_;
  std::vector<std::unique_ptr<NetworkInterface>> interfaces_;
  uint64_t packets_sent_ = 0;
  Arena arena_;
  SlabPool<Transfer> transfer_pool_;
};

}  // namespace declust::hw
