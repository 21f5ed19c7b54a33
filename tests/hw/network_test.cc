#include "src/hw/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/hw/node.h"
#include "src/sim/channel.h"
#include "src/sim/fault.h"

namespace declust::hw {
namespace {

TEST(NetworkTest, PacketTimeMatchesPublishedPoints) {
  HwParams p;
  EXPECT_NEAR(p.PacketSendMs(100), 0.6, 1e-12);
  EXPECT_NEAR(p.PacketSendMs(8192), 5.6, 1e-12);
  // Interpolation is monotone.
  EXPECT_GT(p.PacketSendMs(4000), p.PacketSendMs(200));
}

struct Fixture {
  sim::Simulation s;
  HwParams params;
  Network net{&s, &params, 4};
};

// Delivery sink recording every firing: its simulated time and Status.
struct DeliveryLog {
  explicit DeliveryLog(sim::Simulation* sim) : sim(sim) {}

  sim::Simulation* sim;
  std::vector<double> times;
  std::vector<Status> statuses;

  bool all_ok() const {
    for (const Status& st : statuses) {
      if (!st.ok()) return false;
    }
    return true;
  }

  DeliverySink sink() { return {&Record, this}; }
  static void Record(void* ctx, const Status& st) {
    auto* log = static_cast<DeliveryLog*>(ctx);
    log->times.push_back(log->sim->now());
    log->statuses.push_back(st);
  }
};

sim::Task<> SendOne(Network* net, sim::Simulation* s, int src, int dst,
                    int bytes, DeliveryLog* log, double* sender_freed) {
  const Status sent = co_await net->Send(src, dst, bytes, log->sink());
  EXPECT_TRUE(sent.ok());
  *sender_freed = s->now();
}

sim::Task<> SendOne(Fixture* f, int src, int dst, int bytes, DeliveryLog* log,
                    double* sender_freed) {
  return SendOne(&f->net, &f->s, src, dst, bytes, log, sender_freed);
}

TEST(NetworkTest, TransferOccupiesBothInterfaces) {
  Fixture f;
  DeliveryLog delivered(&f.s);
  double sender_freed = -1;
  f.s.Spawn(SendOne(&f, 0, 1, 100, &delivered, &sender_freed));
  f.s.Run();
  ASSERT_EQ(delivered.times.size(), 1u);  // the sink fires exactly once
  EXPECT_TRUE(delivered.all_ok());
  EXPECT_NEAR(sender_freed, 0.6, 1e-9);
  EXPECT_NEAR(delivered.times[0], 1.2, 1e-9);  // sender pass + receiver pass
}

TEST(NetworkTest, SenderInterfaceSerializesSends) {
  Fixture f;
  DeliveryLog delivered(&f.s);
  double freed1 = -1, freed2 = -1;
  f.s.Spawn(SendOne(&f, 0, 1, 100, &delivered, &freed1));
  f.s.Spawn(SendOne(&f, 0, 2, 100, &delivered, &freed2));
  f.s.Run();
  ASSERT_EQ(delivered.times.size(), 2u);
  EXPECT_TRUE(delivered.all_ok());
  EXPECT_NEAR(freed1, 0.6, 1e-9);
  EXPECT_NEAR(freed2, 1.2, 1e-9);  // queued behind the first send
}

TEST(NetworkTest, ReceiverInterfaceSerializesArrivals) {
  Fixture f;
  DeliveryLog delivered(&f.s);
  double freed1 = -1, freed2 = -1;
  // Two different senders target node 3 simultaneously.
  f.s.Spawn(SendOne(&f, 0, 3, 100, &delivered, &freed1));
  f.s.Spawn(SendOne(&f, 1, 3, 100, &delivered, &freed2));
  f.s.Run();
  ASSERT_EQ(delivered.times.size(), 2u);
  EXPECT_TRUE(delivered.all_ok());
  // Both leave their senders at 0.6; receiver serializes: 1.2 and 1.8.
  EXPECT_NEAR(delivered.times[0], 1.2, 1e-9);
  EXPECT_NEAR(delivered.times[1], 1.8, 1e-9);
}

TEST(NetworkTest, LocalSendStillDelivers) {
  Fixture f;
  DeliveryLog delivered(&f.s);
  double freed = -1;
  f.s.Spawn(SendOne(&f, 2, 2, 100, &delivered, &freed));
  f.s.Run();
  ASSERT_EQ(delivered.times.size(), 1u);
  EXPECT_TRUE(delivered.all_ok());
  EXPECT_NEAR(delivered.times[0], 0.6, 1e-9);  // one loopback pass only
}

TEST(NetworkTest, PacketCounter) {
  Fixture f;
  DeliveryLog delivered(&f.s);
  double freed = -1;
  f.s.Spawn(SendOne(&f, 0, 1, 8192, &delivered, &freed));
  f.s.Run();
  EXPECT_EQ(f.net.packets_sent(), 1u);
  EXPECT_NEAR(f.net.interface(0).busy_ms(), 5.6, 1e-9);
  EXPECT_NEAR(f.net.interface(1).busy_ms(), 5.6, 1e-9);
}

TEST(NetworkTest, DefaultSinkIgnoresDelivery) {
  Fixture f;
  f.s.Spawn([](Network* net) -> sim::Task<> {
    EXPECT_TRUE((co_await net->Send(0, 1, 100)).ok());
  }(&f.net));
  f.s.Run();
  EXPECT_EQ(f.net.packets_sent(), 1u);
  EXPECT_NEAR(f.net.interface(1).busy_ms(), 0.6, 1e-9);
}

TEST(NetworkTest, DeliverySinkFiresOnceWhenTheReceiverCrashesInFlight) {
  // The packet leaves node 0 at 0.6 ms and would arrive at 1.2 ms; node 1
  // crashes at 1 ms, while the packet is on its interface.
  auto plan = sim::FaultPlan::Parse("crash:node1@t=1ms");
  ASSERT_TRUE(plan.ok());
  sim::FaultInjector faults(&*plan, /*seed=*/7, /*num_nodes=*/4);
  sim::Simulation s;
  HwParams params;
  Network net(&s, &params, 4, &faults);
  DeliveryLog log(&s);
  double freed = -1;
  s.Spawn(SendOne(&net, &s, 0, 1, 100, &log, &freed));
  s.Run();
  EXPECT_NEAR(freed, 0.6, 1e-9);
  ASSERT_EQ(log.statuses.size(), 1u);
  EXPECT_TRUE(log.statuses[0].IsUnavailable()) << log.statuses[0].ToString();
  EXPECT_NEAR(log.times[0], 1.2, 1e-9);
}

TEST(NetworkTest, DeliverySinkNeverFiresWhenTheNetworkIsTornDown) {
  // Two transfers cut off mid-flight: one still on the sender's interface,
  // one already on the receiver's. The run is over, so destroying the
  // Network drops both without firing their sinks (firing would schedule
  // wake-ups on a Simulation that never runs again), before or after.
  sim::Simulation s;
  HwParams params;
  auto net = std::make_unique<Network>(&s, &params, 4);
  DeliveryLog on_receiver(&s);
  DeliveryLog on_sender(&s);
  double freed_a = -1, freed_b = -1;
  s.Spawn(SendOne(net.get(), &s, 0, 1, 100, &on_receiver, &freed_a));
  s.Spawn(SendOne(net.get(), &s, 0, 2, 100, &on_sender, &freed_b));
  s.RunUntil(0.9);  // first packet at node 1, second still leaving node 0
  EXPECT_NEAR(freed_a, 0.6, 1e-9);
  EXPECT_LT(freed_b, 0.0);
  net.reset();
  EXPECT_TRUE(on_receiver.statuses.empty());
  EXPECT_TRUE(on_sender.statuses.empty());
}

TEST(NetworkTest, DeliveryLatchWakesItsWaiterWithTheStatus) {
  Fixture f;
  Status got = Status::Internal("unset");
  double at = -1;
  f.s.Spawn([](Fixture* fx, Status* out, double* when) -> sim::Task<> {
    DeliveryLatch latch(&fx->s);
    Status st = co_await fx->net.Send(0, 3, 100, latch.sink());
    if (st.ok()) {
      co_await latch.delivered.Wait();
      st = latch.status;
    }
    *out = st;
    *when = fx->s.now();
  }(&f, &got, &at));
  f.s.Run();
  EXPECT_TRUE(got.ok()) << got.ToString();
  EXPECT_NEAR(at, 1.2, 1e-9);
}

TEST(MachineTest, ConstructsAllNodes) {
  sim::Simulation s;
  HwParams p;
  p.num_processors = 8;
  Machine m(&s, p, RandomStream(7));
  EXPECT_EQ(m.num_nodes(), 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(m.node(i).id(), i);
}

sim::Task<> DoReadPage(Machine* m, int node, double* done_at) {
  EXPECT_TRUE((co_await m->node(node).ReadPage({3, 1})).ok());
  *done_at = m->simulation()->now();
}

TEST(MachineTest, ReadPageChargesDiskDmaAndCpu) {
  sim::Simulation s;
  HwParams p;
  p.num_processors = 2;
  Machine m(&s, p, RandomStream(7));
  double done_at = -1;
  s.Spawn(DoReadPage(&m, 0, &done_at));
  s.Run();
  const double min_time = p.PageTransferMs() +                // transfer
                          p.InstrMs(p.scsi_transfer_instructions) +
                          p.InstrMs(p.read_page_instructions);
  EXPECT_GE(done_at, min_time);
  EXPECT_GT(m.node(0).cpu().busy_ms(), 0.0);
  EXPECT_EQ(m.node(0).disk().completed(), 1u);
}

}  // namespace
}  // namespace declust::hw
