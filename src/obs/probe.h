// Per-query cost attribution + hardware trace hooks.
//
// A single Probe is shared by every hardware model of a Machine. The engine
// sets the probe's *context* (query id, parent span, cost sink) immediately
// before each co_await on a hardware awaitable; the awaiter's await_suspend
// runs synchronously inside the awaiting coroutine, so the hardware captures
// the context at submit time and charges the eventual completion to the
// right query even though many query coroutines interleave.
//
// Attribution model (the "tiling" invariant): every interval during which a
// query coroutine is blocked lands in exactly one QueryCosts bucket —
//   * disk submit..start      -> disk_wait_ms     (hw hook)
//   * disk start..complete    -> disk_service_ms  (hw hook)
//   * CPU demand              -> cpu_service_ms; queue share of the same
//     await                   -> sched_queue_ms   (hw hook)
//   * DMA submit..complete    -> dma_ms           (hw hook, preempts CPU)
//   * awaited network sends   -> network_ms       (engine-side elapsed time)
//   * retry backoff sleeps    -> backoff_ms       (engine-side elapsed time)
// Receiver-side interface occupancy of *asynchronous* sends (result
// packets) overlaps other buckets and is therefore traced as spans but
// never cost-attributed. For a query whose work runs on a single data site
// the buckets tile the response time exactly; intra-query parallelism
// across sites makes them overlap (sum >= response), which is expected.
#pragma once

#include <cstdint>

#include "src/obs/trace.h"

namespace declust::obs {

/// Component breakdown of one query's response time, in simulated ms.
struct QueryCosts {
  double sched_queue_ms = 0.0;   ///< CPU queue wait (submit..start - demand)
  double cpu_service_ms = 0.0;   ///< CPU demand actually served
  double dma_ms = 0.0;           ///< SCSI FIFO -> memory transfers
  double disk_wait_ms = 0.0;     ///< disk queue wait
  double disk_service_ms = 0.0;  ///< seek + rotational latency + transfer
  double network_ms = 0.0;       ///< awaited sends/deliveries
  double backoff_ms = 0.0;       ///< failover retry sleeps

  double Total() const {
    return sched_queue_ms + cpu_service_ms + dma_ms + disk_wait_ms +
           disk_service_ms + network_ms + backoff_ms;
  }

  QueryCosts& operator+=(const QueryCosts& o) {
    sched_queue_ms += o.sched_queue_ms;
    cpu_service_ms += o.cpu_service_ms;
    dma_ms += o.dma_ms;
    disk_wait_ms += o.disk_wait_ms;
    disk_service_ms += o.disk_service_ms;
    network_ms += o.network_ms;
    backoff_ms += o.backoff_ms;
    return *this;
  }
};

/// \brief Hardware-facing attribution hub. The hw models hold a `Probe*`
/// (null when observability is off) and call the On*Complete hooks; the
/// engine arms `SetContext` before each hardware co_await.
class Probe {
 public:
  /// What the hardware captures at submit time.
  struct Context {
    int64_t query = -1;        ///< owning query, -1 = unattributed
    uint64_t parent_span = 0;  ///< span to parent hw spans under
    QueryCosts* costs = nullptr;  ///< cost sink, null = spans only
  };

  /// What a device keeps of a request submitted while it has a probe: the
  /// armed context, the submit time and (CPU jobs) the service demand.
  /// Devices pool these, so a request carries one pointer to its record
  /// and none at all when observability is off.
  struct Submission {
    Context ctx;
    double submit_ms = 0.0;
    double demand_ms = 0.0;
  };

  explicit Probe(Tracer* tracer = nullptr) : tracer_(tracer) {}

  Tracer* tracer() const { return tracer_; }

  void SetContext(const Context& ctx) { ctx_ = ctx; }
  const Context& context() const { return ctx_; }
  void ClearContext() { ctx_ = Context{}; }

  /// CPU job finished at `now`. `demand_ms` is the (slow-factor scaled)
  /// service demand; the remainder of the await is queueing. DMA jobs
  /// preempt, so their whole submit..complete interval is transfer.
  void OnCpuComplete(const Context& c, int node, bool dma, double submit_ms,
                     double demand_ms, double now) {
    if (c.costs != nullptr) {
      if (dma) {
        c.costs->dma_ms += now - submit_ms;
      } else {
        c.costs->cpu_service_ms += demand_ms;
        c.costs->sched_queue_ms += (now - submit_ms) - demand_ms;
      }
    }
    if (tracer_ != nullptr) {
      tracer_->AddComplete(dma ? "dma" : "cpu",
                           dma ? Component::kDma : Component::kCpu, node,
                           c.query, submit_ms, now, c.parent_span);
    }
  }

  /// Disk request finished at `now`; it waited submit..start in the queue
  /// and was served start..now.
  void OnDiskComplete(const Context& c, int node, bool write,
                      double submit_ms, double start_ms, double now) {
    if (c.costs != nullptr) {
      c.costs->disk_wait_ms += start_ms - submit_ms;
      c.costs->disk_service_ms += now - start_ms;
    }
    if (tracer_ != nullptr) {
      if (start_ms > submit_ms) {
        tracer_->AddComplete("disk.queue", Component::kDisk, node, c.query,
                             submit_ms, start_ms, c.parent_span);
      }
      tracer_->AddComplete(write ? "disk.write" : "disk.read",
                           Component::kDisk, node, c.query, start_ms, now,
                           c.parent_span);
    }
  }

  /// Network interface finished a unit of work at `now`. Interface
  /// occupancy is trace-only: awaited transfers are cost-attributed by the
  /// engine (elapsed time around the co_await) and asynchronous
  /// receiver-side occupancy overlaps other buckets.
  void OnNetComplete(const Context& c, int node, bool rx, double enqueue_ms,
                     double start_ms, double now) {
    (void)enqueue_ms;
    if (tracer_ != nullptr) {
      tracer_->AddComplete(rx ? "net.rx" : "net.tx", Component::kNetwork,
                           node, c.query, start_ms, now, c.parent_span);
    }
  }

 private:
  Tracer* tracer_;
  Context ctx_;
};

/// \brief Per-query observability handle threaded through the engine: the
/// probe (null when off), the query's id and current parent span, and the
/// cost accumulator. Passed as a nullable pointer everywhere.
struct QueryObs {
  Probe* probe = nullptr;
  int64_t query = -1;
  uint64_t span = 0;  ///< current parent span for child spans / hw capture
  QueryCosts costs;
};

/// Arms the probe context from `qo` (with `parent` overriding qo->span when
/// non-zero) so the next hardware co_await is attributed. Null-safe.
inline void ArmHw(QueryObs* qo, uint64_t parent = 0) {
  if (qo == nullptr || qo->probe == nullptr) return;
  qo->probe->SetContext(
      {qo->query, parent != 0 ? parent : qo->span, &qo->costs});
}

/// Opens a child span of `qo->span` (null-safe; returns 0 when off).
inline uint64_t BeginSpan(QueryObs* qo, const char* name, Component component,
                          int node, double now) {
  if (qo == nullptr || qo->probe == nullptr ||
      qo->probe->tracer() == nullptr) {
    return 0;
  }
  return qo->probe->tracer()->BeginSpan(name, component, node, qo->query, now,
                                        qo->span);
}

/// Closes a span opened with BeginSpan (null-safe, ignores id 0).
inline void EndSpan(QueryObs* qo, uint64_t id, double now) {
  if (qo == nullptr || qo->probe == nullptr ||
      qo->probe->tracer() == nullptr || id == 0) {
    return;
  }
  qo->probe->tracer()->EndSpan(id, now);
}

/// Opens `name` as a child of `qo->span` and makes it the current span, so
/// a nested span is kept on the handle rather than in the caller's
/// coroutine frame (a no-op without a tracer).
inline void PushSpan(QueryObs* qo, const char* name, Component component,
                     int node, double now) {
  const uint64_t id = BeginSpan(qo, name, component, node, now);
  if (id != 0) qo->span = id;
}

/// Closes the span PushSpan made current, back to its parent span `parent`
/// (a no-op when `qo` is null or `parent` is already current).
inline void PopSpan(QueryObs* qo, uint64_t parent, double now) {
  if (qo != nullptr && qo->span != parent) {
    EndSpan(qo, qo->span, now);
    qo->span = parent;
  }
}

/// Records a closed child span of `qo->span` (null-safe).
inline void CompleteSpan(QueryObs* qo, const char* name, Component component,
                         int node, double begin, double end) {
  if (qo == nullptr || qo->probe == nullptr ||
      qo->probe->tracer() == nullptr) {
    return;
  }
  qo->probe->tracer()->AddComplete(name, component, node, qo->query, begin,
                                   end, qo->span);
}

}  // namespace declust::obs
