// Order-equivalence property test of the event calendar. Seeded random
// programs run twice: once on sim::Simulation and once on a reference
// calendar, a std::multimap keyed by (time, scheduling sequence). The
// programs schedule callbacks and coroutine resumes from inside events and
// from outside between RunUntil horizons, cancel pending events, and call
// Stop; every decision is drawn from one RNG in dispatch order, so the two
// runs make the same decisions exactly as long as they dispatch in the same
// order. The property: identical (time, event) dispatch sequences.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/simulation.h"
#include "src/sim/task.h"

namespace declust::sim {
namespace {

constexpr double kForever = std::numeric_limits<double>::infinity();

/// One dispatched event: its time and label (callbacks >= 0, process steps
/// -(p + 1)).
using Rec = std::pair<double, int64_t>;

/// The calendar operations a program uses; implemented by the simulation
/// under test and by the reference.
class Calendar {
 public:
  virtual ~Calendar() = default;
  virtual double Now() const = 0;
  /// Schedules callback `label` at absolute time `at`; returns a handle.
  virtual uint64_t At(double at, int label) = 0;
  virtual void Cancel(uint64_t handle) = 0;
  /// Starts process `p`, first stepping after `delay`.
  virtual void StartProc(int p, double delay) = 0;
  virtual void Stop() = 0;
  virtual void ClearStop() = 0;
  /// Run() for an infinite horizon, else RunUntil(horizon).
  virtual void RunUntil(double horizon) = 0;
  virtual bool Idle() const = 0;
};

struct Mix {
  int initial_callbacks = 200;
  int procs = 20;
  int proc_steps = 50;
  /// Callbacks that events and Drive() may create in total.
  int budget = 2'000;
  /// Delay shares: 0 (same instant), 0.25-4 ms on a quarter-millisecond
  /// grid (ties), far (100-1100 ms on the same grid, so far instants tie
  /// too); the rest are continuous in (0, 8) ms.
  double p_same = 0.3;
  double p_grid = 0.3;
  double p_far = 0.1;
  int cancel_pct = 15;
  /// A callback whose label is a multiple of this calls Stop (0 = never).
  int stop_every = 0;
  /// Every burst_every-th dispatch that is a callback schedules `burst`
  /// more callbacks within 0.2 ms: a crowd just ahead of now.
  int burst_every = 0;
  int burst = 0;
  /// Processes wait exactly 1 ms every step, in lockstep.
  bool lockstep = false;
  /// RunUntil increments; kForever = one Run() per pass.
  double horizon_step = kForever;
  /// Callbacks Drive() schedules from outside after each RunUntil.
  int outside_per_pass = 0;
};

class Program {
 public:
  Program(const Mix& mix, uint64_t seed) : mix_(mix), rng_(seed) {}

  void Attach(Calendar* cal) { cal_ = cal; }

  /// Initial callbacks (delay 0 lands at now, before Run) and processes.
  void Seed() {
    for (int i = 0; i < mix_.initial_callbacks; ++i) NewCallback(Delay());
    steps_left_.assign(static_cast<size_t>(mix_.procs), mix_.proc_steps);
    for (int p = 0; p < mix_.procs; ++p) {
      cal_->StartProc(p, mix_.lockstep ? 0.0 : Delay());
    }
  }

  void FireCallback(int label) {
    out.emplace_back(cal_->Now(), label);
    Forget(label);
    if (mix_.stop_every > 0 && label % mix_.stop_every == 0) cal_->Stop();
    if (mix_.burst_every > 0 && out.size() % mix_.burst_every == 0) {
      // Outside the budget: a burst every burst_every dispatches keeps
      // coming until the calendar drains (bursts add fewer dispatches than
      // they wait for, so it does).
      for (int i = 0; i < mix_.burst; ++i) {
        NewCallback(0.2 * std::uniform_real_distribution<double>(0, 1)(rng_) +
                    1e-9);
      }
    }
    if (created_ >= Cap()) return;
    if (static_cast<int>(rng_() % 100) < mix_.cancel_pct &&
        !pending_.empty()) {
      const auto [victim, handle] = pending_[rng_() % pending_.size()];
      cal_->Cancel(handle);
      Forget(victim);
    }
    const int spawn = static_cast<int>(rng_() % 3);
    for (int i = 0; i < spawn; ++i) NewCallback(Delay());
  }

  /// One process step; returns the next wake-up time, or -1 when done.
  double ProcStep(int p) {
    out.emplace_back(cal_->Now(), -(p + 1));
    if (--steps_left_[static_cast<size_t>(p)] <= 0) return -1.0;
    return cal_->Now() + (mix_.lockstep ? 1.0 : Delay());
  }

  /// Schedules from outside the event loop: between now and whatever the
  /// last RunUntil left beyond its horizon, and at now itself.
  void ScheduleOutside() {
    for (int i = 0; i < mix_.outside_per_pass && created_ < Cap(); ++i) {
      NewCallback(Delay());
    }
  }

  std::vector<Rec> out;

 private:
  double Delay() {
    const double r = std::uniform_real_distribution<double>(0, 1)(rng_);
    const double x = std::uniform_real_distribution<double>(0, 1)(rng_);
    if (r < mix_.p_same) return 0.0;
    if (r < mix_.p_same + mix_.p_grid) {
      return 0.25 * static_cast<double>(1 + rng_() % 16);
    }
    if (r < mix_.p_same + mix_.p_grid + mix_.p_far) {
      return 100.0 + 0.25 * static_cast<double>(rng_() % 4'000);
    }
    return 8.0 * x + 1e-9;
  }

  int Cap() const { return mix_.initial_callbacks + mix_.budget; }

  void NewCallback(double delay) {
    ++created_;
    const int label = next_label_++;
    const uint64_t handle = cal_->At(cal_->Now() + delay, label);
    index_of_.push_back(static_cast<int>(pending_.size()));
    pending_.emplace_back(label, handle);
  }

  void Forget(int label) {
    int& idx = index_of_[static_cast<size_t>(label)];
    if (idx < 0) return;
    const auto last = pending_.back();
    pending_[static_cast<size_t>(idx)] = last;
    index_of_[static_cast<size_t>(last.first)] = idx;
    pending_.pop_back();
    idx = -1;
  }

  Mix mix_;
  std::mt19937_64 rng_;
  Calendar* cal_ = nullptr;
  std::vector<std::pair<int, uint64_t>> pending_;
  std::vector<int> index_of_;  // label -> position in pending_, -1 if gone
  std::vector<int> steps_left_;
  int next_label_ = 0;
  int created_ = 0;
};

/// The reference: a multimap ordered by (time, scheduling sequence).
class ReferenceCalendar : public Calendar {
 public:
  explicit ReferenceCalendar(Program* prog) : prog_(prog) {}

  double Now() const override { return now_; }
  uint64_t At(double at, int label) override {
    const uint64_t seq = seq_++;
    live_.emplace(seq, q_.emplace(std::make_pair(at, seq), Ev{false, label}));
    return seq;
  }
  void Cancel(uint64_t handle) override {
    const auto it = live_.find(handle);
    ASSERT_NE(it, live_.end());
    q_.erase(it->second);
    live_.erase(it);
  }
  void StartProc(int p, double delay) override { Proc(now_ + delay, p); }
  void Stop() override { stop_ = true; }
  void ClearStop() override { stop_ = false; }
  void RunUntil(double horizon) override {
    while (!stop_ && !q_.empty()) {
      const auto it = q_.begin();
      if (it->first.first > horizon) break;
      now_ = it->first.first;
      const Ev ev = it->second;
      live_.erase(it->first.second);
      q_.erase(it);
      if (!ev.proc) {
        prog_->FireCallback(ev.id);
      } else if (const double next = prog_->ProcStep(ev.id); next >= 0) {
        Proc(next, ev.id);
      }
    }
    if (!stop_ && horizon != kForever && now_ < horizon) now_ = horizon;
  }
  bool Idle() const override { return q_.empty(); }

 private:
  struct Ev {
    bool proc;
    int id;
  };
  using Queue = std::multimap<std::pair<double, uint64_t>, Ev>;

  void Proc(double at, int p) {
    const uint64_t seq = seq_++;
    live_.emplace(seq, q_.emplace(std::make_pair(at, seq), Ev{true, p}));
  }

  Program* prog_;
  Queue q_;
  std::unordered_map<uint64_t, Queue::iterator> live_;
  double now_ = 0.0;
  uint64_t seq_ = 0;
  bool stop_ = false;
};

/// The simulation under test; processes are coroutines resumed through
/// ScheduleResume.
class SimCalendar : public Calendar {
 public:
  SimCalendar(Program* prog, bool traced) : prog_(prog) {
    if (traced) {
      sim_.SetTracer([this](SimTime, EventId, bool) { ++traced_; });
    }
  }

  double Now() const override { return sim_.now(); }
  uint64_t At(double at, int label) override {
    return sim_.ScheduleAt(at, [this, label] { prog_->FireCallback(label); });
  }
  void Cancel(uint64_t handle) override { EXPECT_TRUE(sim_.Cancel(handle)); }
  void StartProc(int p, double delay) override { sim_.Spawn(Proc(p), delay); }
  void Stop() override { sim_.Stop(); }
  void ClearStop() override { sim_.ClearStop(); }
  void RunUntil(double horizon) override {
    if (horizon == kForever) {
      sim_.Run();
    } else {
      sim_.RunUntil(horizon);
    }
  }
  bool Idle() const override { return sim_.pending_events() == 0; }

  const Simulation& sim() const { return sim_; }
  uint64_t traced() const { return traced_; }

 private:
  struct ResumeAt {
    Simulation* sim;
    SimTime at;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      sim->ScheduleResume(at, h);
    }
    void await_resume() const noexcept {}
  };

  Task<> Proc(int p) {
    for (;;) {
      const double next = prog_->ProcStep(p);
      if (next < 0) co_return;
      co_await ResumeAt{&sim_, next};
    }
  }

  Program* prog_;
  Simulation sim_;
  uint64_t traced_ = 0;
};

void Drive(Calendar* cal, Program* prog, const Mix& mix) {
  prog->Attach(cal);
  prog->Seed();
  double horizon = 0.0;
  for (int pass = 0; !cal->Idle(); ++pass) {
    // A calendar that loses an entry would never drain.
    ASSERT_LT(pass, 1'000'000) << "calendar never drained";
    horizon += mix.horizon_step;
    cal->RunUntil(horizon);
    cal->ClearStop();
    prog->ScheduleOutside();
  }
}

/// Runs `mix` on both calendars for several seeds and compares.
void ExpectSameOrder(const Mix& mix, bool traced = false) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Program want(mix, seed);
    ReferenceCalendar ref(&want);
    Drive(&ref, &want, mix);

    Program got(mix, seed);
    SimCalendar sim(&got, traced);
    Drive(&sim, &got, mix);

    ASSERT_GT(want.out.size(), 0u);
    ASSERT_EQ(got.out.size(), want.out.size()) << "seed " << seed;
    for (size_t i = 0; i < want.out.size(); ++i) {
      ASSERT_EQ(got.out[i], want.out[i])
          << "seed " << seed << ": first divergence at dispatch " << i;
    }
    EXPECT_EQ(sim.sim().events_dispatched(), want.out.size());
    if (traced) {
      EXPECT_EQ(sim.traced(), want.out.size());
    }
  }
}

TEST(CalendarOrderTest, MixedProgramMatchesReference) {
  ExpectSameOrder(Mix{});
}

TEST(CalendarOrderTest, CancelsAndStopsMatchReference) {
  Mix mix;
  mix.cancel_pct = 45;
  mix.stop_every = 7;
  mix.p_far = 0.3;
  ExpectSameOrder(mix);
}

TEST(CalendarOrderTest, LockstepThousandWayTiesMatchReference) {
  Mix mix;
  mix.procs = 1'200;
  mix.proc_steps = 20;
  mix.lockstep = true;
  mix.initial_callbacks = 300;
  mix.p_grid = 0.6;
  ExpectSameOrder(mix);
}

TEST(CalendarOrderTest, HundredThousandDeepCalendarMatchesReference) {
  Mix mix;
  // A thousand processes and bursts just ahead of now crowd the near
  // future while the far population (ten-way ties on its grid) moves
  // between the calendar's tiers.
  mix.initial_callbacks = 100'000;
  mix.budget = 60'000;
  mix.procs = 1'000;
  mix.proc_steps = 60;
  mix.burst_every = 2'000;
  mix.burst = 400;
  mix.p_same = 0.05;
  mix.p_grid = 0.05;
  mix.p_far = 0.85;
  ExpectSameOrder(mix);
}

TEST(CalendarOrderTest, RunUntilHorizonsWithOutsideSchedulesMatchReference) {
  // Each RunUntil stops with the next event beyond its horizon; schedules
  // made from outside afterwards, between now and that event (and at now),
  // must dispatch first.
  Mix mix;
  mix.horizon_step = 0.6;
  mix.outside_per_pass = 3;
  mix.stop_every = 11;
  ExpectSameOrder(mix);
}

TEST(CalendarOrderTest, TracedSlabResumesMatchReference) {
  Mix mix;
  mix.stop_every = 13;
  mix.horizon_step = 2.5;
  mix.outside_per_pass = 1;
  ExpectSameOrder(mix, /*traced=*/true);
}

TEST(CalendarOrderTest, ScheduleBeforeEarlierPendingAfterHorizonStop) {
  Simulation s;
  std::vector<int> order;
  s.ScheduleAt(10.0, [&] { order.push_back(3); });
  s.RunUntil(5.0);
  EXPECT_EQ(s.now(), 5.0);
  s.ScheduleAt(7.0, [&] { order.push_back(2); });
  s.ScheduleAt(5.0, [&] { order.push_back(1); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

Task<> Sleeper(Simulation* s, std::shared_ptr<int> token) {
  co_await s->WaitFor(1e9);
  (void)token;
}

// Every tier holds entries when the simulation is destroyed: the now-FIFO
// (a callback scheduled at now before Stop), the window and the far heap
// (descending inserts overflow the window), each with heap-held callables
// and suspended processes. All of them must be released.
TEST(CalendarOrderTest, TeardownReleasesEntriesInEveryTier) {
  auto token = std::make_shared<int>(0);
  struct Big {
    std::shared_ptr<int> token;
    std::array<char, 96> pad{};
    void operator()() const {}
  };
  static_assert(!detail::SmallFn::FitsInline<Big>());
  {
    Simulation s;
    for (int i = 0; i < 3'000; ++i) {
      s.ScheduleAt(5'000.0 - i, Big{token});
      if (i % 100 == 0) s.Spawn(Sleeper(&s, token), 4'000.0 - i);
    }
    s.ScheduleAt(1.0, [&s, token] {
      for (int i = 0; i < 50; ++i) s.ScheduleAt(s.now(), Big{token});
      s.Spawn(Sleeper(&s, token));
      s.Stop();
    });
    s.Run();
    EXPECT_EQ(s.now(), 1.0);
    EXPECT_GT(s.pending_events(), 3'000u);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace declust::sim
