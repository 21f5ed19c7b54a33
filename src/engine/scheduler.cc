#include "src/engine/scheduler.h"

namespace declust::engine {

sim::Task<Status> DeliverMessage(sim::Simulation* sim, hw::Network* net,
                                 int src, int dst, int bytes,
                                 obs::QueryObs* qo) {
  hw::DeliveryLatch latch(sim);
  const double begin_ms = sim->now();
  obs::ArmHw(qo);
  const Status sent = co_await net->Send(src, dst, bytes, latch.sink());
  // Fail-fast path: the network refused the send and the delivery sink will
  // never fire; don't wait for it.
  DECLUST_CO_RETURN_NOT_OK(sent);
  co_await latch.delivered.Wait();
  // The caller was blocked begin..now on this delivery: network time.
  if (qo != nullptr && qo->probe != nullptr) {
    qo->costs.network_ms += sim->now() - begin_ms;
  }
  co_return latch.status;
}

}  // namespace declust::engine
