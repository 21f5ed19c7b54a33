// Micro-benchmarks of the discrete-event kernel: event calendar throughput,
// coroutine process overhead, resource contention. These quantify the cost
// basis of every figure simulation (ablation: calendar under different
// event-population sizes).
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "src/common/arena.h"
#include "src/sim/resource.h"
#include "src/sim/simulation.h"
#include "src/sim/task.h"
#include "src/sim/trigger.h"

namespace {

using namespace declust;  // NOLINT(build/namespaces)

void BM_ScheduleCallback(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    // Keep `population` events pending; each handler re-arms itself once.
    int fired = 0;
    for (int i = 0; i < population; ++i) {
      s.ScheduleAt(static_cast<double>(i % 97), [&fired] { ++fired; });
    }
    s.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * population);
}
BENCHMARK(BM_ScheduleCallback)->Arg(1000)->Arg(10000)->Arg(100000);

sim::Task<> Hopper(sim::Simulation* s, int hops) {
  for (int i = 0; i < hops; ++i) co_await s->WaitFor(1.0);
}

void BM_CoroutineDelays(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    for (int i = 0; i < procs; ++i) s.Spawn(Hopper(&s, 100));
    s.Run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * procs * 100);
}
BENCHMARK(BM_CoroutineDelays)->Arg(10)->Arg(100)->Arg(1000);

sim::Task<> Contender(sim::Simulation* s, sim::Resource* r, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    auto g = co_await r->Acquire();
    co_await s->WaitFor(0.1);
  }
}

void BM_ResourceContention(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    sim::Resource r(&s, 1);
    for (int i = 0; i < procs; ++i) s.Spawn(Contender(&s, &r, 20));
    s.Run();
    benchmark::DoNotOptimize(r.grants());
  }
  state.SetItemsProcessed(state.iterations() * procs * 20);
}
BENCHMARK(BM_ResourceContention)->Arg(4)->Arg(32)->Arg(128);

void BM_CancelHeavy(benchmark::State& state) {
  // Cancellation via lazy deletion: half the scheduled events are cancelled.
  for (auto _ : state) {
    sim::Simulation s;
    std::vector<sim::EventId> ids;
    ids.reserve(10000);
    int fired = 0;
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(
          s.ScheduleAt(static_cast<double>(i % 53), [&fired] { ++fired; }));
    }
    for (size_t i = 0; i < ids.size(); i += 2) s.Cancel(ids[i]);
    s.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CancelHeavy);

void BM_ScheduleCancelChurn(benchmark::State& state) {
  // Timer-style usage: nearly every event is cancelled before it fires
  // (e.g. timeouts that are disarmed on completion). Exercises the O(1)
  // generation-flip cancel and slab slot reuse.
  sim::Simulation s;
  double t = 1.0;
  int fired = 0;
  for (auto _ : state) {
    const sim::EventId id = s.ScheduleAt(t, [&fired] { ++fired; });
    benchmark::DoNotOptimize(s.Cancel(id));
    t += 1e-9;
  }
  s.Run();
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScheduleCancelChurn);

sim::Task<> PingPong(sim::Simulation* s, sim::Trigger* mine,
                     sim::Trigger* theirs, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await mine->Wait();
    mine->Reset();
    theirs->Fire();
    co_await s->WaitFor(0.01);
  }
}

void BM_TriggerPingPong(benchmark::State& state) {
  // Resume-dominated workload: two processes waking each other through the
  // calendar (the scheduler/operator message pattern of the engine).
  for (auto _ : state) {
    sim::Simulation s;
    sim::Trigger a(&s), b(&s);
    s.Spawn(PingPong(&s, &a, &b, 200));
    s.Spawn(PingPong(&s, &b, &a, 200));
    a.Fire();
    s.Run();
    benchmark::DoNotOptimize(s.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * 400);
}
BENCHMARK(BM_TriggerPingPong);

// ---------------------------------------------------------------------------
// Ablation: arena/slab allocation vs plain heap churn. The engine's hot paths
// recycle fixed-size records through SlabPool; this pair quantifies what that
// buys over new/delete for the same churn pattern.
// ---------------------------------------------------------------------------

struct ChurnNode {
  double deadline = 0.0;
  uint64_t seq = 0;
  void* payload[6] = {};
};

void BM_SlabChurn_Pool(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  Arena arena;
  SlabPool<ChurnNode> pool(&arena);
  std::vector<ChurnNode*> held;
  held.reserve(live);
  for (int i = 0; i < live; ++i) held.push_back(pool.New());
  uint64_t seq = 0;
  for (auto _ : state) {
    // Steady-state churn: retire the oldest record, mint a replacement.
    ChurnNode* oldest = held[seq % held.size()];
    pool.Delete(oldest);
    ChurnNode* fresh = pool.New();
    fresh->seq = seq++;
    held[(seq - 1) % held.size()] = fresh;
    benchmark::DoNotOptimize(fresh);
  }
  for (ChurnNode* n : held) pool.Delete(n);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlabChurn_Pool)->Arg(64)->Arg(1024);

void BM_SlabChurn_Heap(benchmark::State& state) {
  const int live = static_cast<int>(state.range(0));
  std::vector<ChurnNode*> held;
  held.reserve(live);
  for (int i = 0; i < live; ++i) held.push_back(new ChurnNode());
  uint64_t seq = 0;
  for (auto _ : state) {
    delete held[seq % held.size()];
    auto* fresh = new ChurnNode();
    fresh->seq = seq++;
    held[(seq - 1) % held.size()] = fresh;
    benchmark::DoNotOptimize(fresh);
  }
  for (ChurnNode* n : held) delete n;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlabChurn_Heap)->Arg(64)->Arg(1024);

void BM_ArenaScratch_Arena(benchmark::State& state) {
  // Per-query scratch pattern: a burst of small allocations, then bulk reset.
  Arena arena(/*first_chunk_bytes=*/64 * 1024);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      benchmark::DoNotOptimize(arena.Allocate(48));
    }
    arena.Reset();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ArenaScratch_Arena);

void BM_ArenaScratch_Heap(benchmark::State& state) {
  std::vector<void*> blocks;
  blocks.reserve(256);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) {
      blocks.push_back(::operator new(48));
    }
    for (void* b : blocks) ::operator delete(b);
    blocks.clear();
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ArenaScratch_Heap);

// ---------------------------------------------------------------------------
// Ablation: tie-heavy vs fully scattered insertion into the real calendar.
// Tie-heavy scheduling — many events sharing each timestamp, the dominant
// shape in the engine (all disks completing within the same service
// quantum) — appends each tie to the sorted window; fully scattered
// timestamps give every event its own instant. Same population, same
// callbacks.
// ---------------------------------------------------------------------------

void BM_CalendarInsert_TieHeavy(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    int fired = 0;
    // 16 distinct timestamps, ties scheduled consecutively (a device model
    // posting a burst of completions for one instant): every tie is an O(1)
    // append at the window's latest instant.
    const int run_len = population / 16;
    for (int i = 0; i < population; ++i) {
      s.ScheduleAt(static_cast<double>(i / run_len), [&fired] { ++fired; });
    }
    s.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * population);
}
BENCHMARK(BM_CalendarInsert_TieHeavy)->Arg(10000)->Arg(100000);

void BM_CalendarInsert_Scattered(benchmark::State& state) {
  const int population = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation s;
    int fired = 0;
    // Every event gets its own timestamp, each later than the last.
    for (int i = 0; i < population; ++i) {
      s.ScheduleAt(static_cast<double>(i), [&fired] { ++fired; });
    }
    s.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * population);
}
BENCHMARK(BM_CalendarInsert_Scattered)->Arg(10000)->Arg(100000);

// ---------------------------------------------------------------------------
// The calendar at the real mix: the depth and timestamp shape of a figure-8
// sweep (sim.peak_pending 114) and of the open_skew workload (559). Half of
// all schedules are same-instant resumes (resource grants, trigger fires);
// the rest draw their delay from the figure-8 mix, where 72% fall in
// 0.25-2 ms (CPU bursts, messages) and 26% in 4-32 ms (disk services). A
// sixteenth of the pending events are device timers that running processes
// preempt DMA-style: cancel the pending completion and re-arm it later.
// ---------------------------------------------------------------------------

struct RealMix {
  sim::Simulation* s = nullptr;
  std::vector<double> delays;    // 0 = same instant
  std::vector<sim::EventId> timers;
  size_t next = 0;
  int live_procs = 0;

  double Draw() { return delays[next++ & (delays.size() - 1)]; }

  void ArmTimer(size_t i, double dt) {
    timers[i] = s->ScheduleAfter(dt, [this, i] {
      if (live_procs > 0) ArmTimer(i, Draw() + 0.25);
    });
  }
};

std::vector<double> RealMixDelays() {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  std::vector<double> delays(1 << 14);
  for (double& d : delays) {
    const double r = u(rng);
    const double x = u(rng);
    if (r < 0.50) {
      d = 0.0;
    } else if (r < 0.50 + 0.50 * 0.72) {
      d = 0.25 + 1.75 * x;
    } else if (r < 0.50 + 0.50 * 0.98) {
      d = 4.0 + 28.0 * x;
    } else {
      d = 2.0 + 2.0 * x;
    }
  }
  return delays;
}

struct YieldNow {
  sim::Simulation* s;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    s->ScheduleResume(s->now(), h);
  }
  void await_resume() const noexcept {}
};

sim::Task<> RealMixProc(RealMix* m, int hops) {
  for (int i = 0; i < hops; ++i) {
    const double dt = m->Draw();
    if (dt == 0.0) {
      co_await YieldNow{m->s};
    } else {
      co_await m->s->WaitFor(dt);
    }
    if ((i & 7) == 3 && !m->timers.empty()) {
      const size_t t = m->next % m->timers.size();
      if (m->s->Cancel(m->timers[t])) m->ArmTimer(t, 0.1 + m->Draw());
    }
  }
  --m->live_procs;
}

void BM_CalendarRealMix(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  const int num_timers = depth / 16;
  const int procs = depth - num_timers;
  const int hops = 400'000 / depth;
  const std::vector<double> delays = RealMixDelays();
  uint64_t events = 0;
  size_t peak = 0;
  for (auto _ : state) {
    sim::Simulation s;
    RealMix m;
    m.s = &s;
    m.delays = delays;
    m.timers.resize(static_cast<size_t>(num_timers));
    m.live_procs = procs;
    for (int i = 0; i < num_timers; ++i) {
      m.ArmTimer(static_cast<size_t>(i), m.Draw() + 0.25);
    }
    for (int i = 0; i < procs; ++i) s.Spawn(RealMixProc(&m, hops));
    s.Run();
    events += s.events_dispatched();
    peak = s.peak_pending_events();
  }
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["peak_pending"] = static_cast<double>(peak);
}
BENCHMARK(BM_CalendarRealMix)->Arg(114)->Arg(559);

}  // namespace

BENCHMARK_MAIN();
