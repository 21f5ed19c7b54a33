#include "src/sim/simulation.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace declust::sim {

namespace detail {

void ReleaseDetachedFrame(Simulation* sim, PromiseBase& promise,
                          std::coroutine_handle<> h) {
  if (promise.det_prev != nullptr) {
    promise.det_prev->det_next = promise.det_next;
  } else {
    sim->detached_head_ = promise.det_next;
  }
  if (promise.det_next != nullptr) {
    promise.det_next->det_prev = promise.det_prev;
  }
  // The coroutine is suspended at its final suspend point; destroying the
  // frame here is well-defined.
  h.destroy();
}

}  // namespace detail

Simulation::~Simulation() {
  draining_ = true;
  // Destroy still-suspended detached processes, newest first. Destroying a
  // frame runs the destructors of its locals (e.g. resource guards);
  // draining_ suppresses any wake-ups those destructors would otherwise
  // schedule. Pending callback events are destroyed by the slots_ vector's
  // destructor (SmallFn releases inline or heap-held callables either way);
  // the calendar tiers hold plain words.
  detail::PromiseBase* p = detached_head_;
  while (p != nullptr) {
    detail::PromiseBase* next = p->det_next;
    std::coroutine_handle<Task<>::promise_type>::from_promise(
        static_cast<Task<>::promise_type&>(*p))
        .destroy();
    p = next;
  }
}

void Simulation::Spawn(Task<> task, SimTime delay) {
  assert(task.valid());
  auto h = task.Release();
  detail::PromiseBase& p = h.promise();
  p.detached_owner = this;
  p.det_next = detached_head_;
  if (detached_head_ != nullptr) detached_head_->det_prev = &p;
  detached_head_ = &p;
  ScheduleResume(now_ + delay, h);
}

uint32_t Simulation::AllocSlot() {
  if (free_head_ != kNoSlot) {
    const uint32_t idx = free_head_;
    free_head_ = slots_[idx].next_free;
    return idx;
  }
  assert(slots_.size() < kMaxSlots);
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulation::FreeSlot(uint32_t idx) {
  EventSlot& s = slots_[idx];
  s.pending = false;
  s.handle = nullptr;
  s.fn.Reset();
  if (++s.gen == 0) s.gen = 1;  // keep EventId 0 invalid even for slot 0
  s.next_free = free_head_;
  free_head_ = idx;
}

bool Simulation::Later(const FarRec& a, const FarRec& b) {
  return a.time > b.time || (a.time == b.time && a.seq > b.seq);
}

void Simulation::FarPush(SimTime at, Entry e) {
  far_.push_back(FarRec{at, far_seq_++, e});
  std::push_heap(far_.begin(), far_.end(), Later);
}

void Simulation::RecenterWindow() {
  const size_t n = win_hi_ - win_lo_;
  Timed* live = window_.get() + win_lo_;
  if (window_cap_ < 2 * n + 64) {
    // Uninitialised: only the live range is ever read.
    window_cap_ = 4 * n + 64;
    auto grown = std::make_unique_for_overwrite<Timed[]>(window_cap_);
    win_lo_ = (window_cap_ - n) / 2;
    std::copy(live, live + n, grown.get() + win_lo_);
    window_ = std::move(grown);
  } else {
    win_lo_ = (window_cap_ - n) / 2;
    std::memmove(window_.get() + win_lo_, live, n * sizeof(Timed));
  }
  win_hi_ = win_lo_ + n;
}

void Simulation::EvictWindowTail(SimTime at) {
  // Whole instants move, so the window never shares one with the far heap;
  // they keep their order because their fresh sequence numbers are below
  // any later schedule's.
  while (win_hi_ - win_lo_ > kWindowRefill &&
         window_[win_hi_ - 1].time > at) {
    const SimTime t = window_[win_hi_ - 1].time;
    size_t start = win_hi_ - 1;
    while (start > win_lo_ && window_[start - 1].time == t) --start;
    for (size_t i = start; i < win_hi_; ++i) FarPush(t, window_[i].entry);
    win_hi_ = start;
    window_limit_ = t;
  }
}

void Simulation::WindowInsert(SimTime at, Entry e) {
  if (win_hi_ - win_lo_ >= kWindowCap && at < window_[win_hi_ - 1].time) {
    EvictWindowTail(at);
  }
  // Behind every entry at or before `at`. The latest instant (or a tie with
  // it) is an append; otherwise the middle entry picks the side to shift,
  // and a linear walk from that end moves it one slot.
  const size_t n = win_hi_ - win_lo_;
  if (n == 0 || at >= window_[win_hi_ - 1].time) {
    if (win_hi_ == window_cap_) RecenterWindow();
    window_[win_hi_++] = Timed{at, e};
  } else if (at < window_[win_lo_ + n / 2].time) {
    if (win_lo_ == 0) RecenterWindow();
    Timed* q = window_.get() + --win_lo_;
    for (; q[1].time <= at; ++q) q[0] = q[1];
    *q = Timed{at, e};
  } else {
    if (win_hi_ == window_cap_) RecenterWindow();
    Timed* q = window_.get() + win_hi_++;
    for (; q[-1].time > at; --q) q[0] = q[-1];
    *q = Timed{at, e};
  }
}

void Simulation::Refill() {
  SimTime last = -std::numeric_limits<SimTime>::infinity();
  while (!far_.empty() && (win_hi_ - win_lo_ < kWindowRefill ||
                           far_.front().time == last)) {
    std::pop_heap(far_.begin(), far_.end(), Later);
    last = far_.back().time;
    WindowInsert(last, far_.back().entry);  // an append
    far_.pop_back();
  }
  window_limit_ = far_.empty() ? std::numeric_limits<SimTime>::infinity()
                               : far_.front().time;
}

void Simulation::Enqueue(SimTime at, Entry e) {
  if (at == now_) {
    now_fifo_.push_back(e);
  } else if (at < window_limit_) {
    WindowInsert(at, e);
  } else {
    FarPush(at, e);
  }
  ++live_events_;
  if (live_events_ > peak_live_events_) peak_live_events_ = live_events_;
  if (audit_ != nullptr) audit_->OnEventScheduled(at, now_);
}

EventId Simulation::ScheduleResume(SimTime at, std::coroutine_handle<> h) {
  if (draining_) return 0;
  assert(at >= now_);
  if (tracer_) {
    // Slab path so the tracer sees a stable per-event id.
    const uint32_t slot = AllocSlot();
    EventSlot& s = slots_[slot];
    s.handle = h;
    s.pending = true;
    Enqueue(at, SlabEntry(slot, s.gen));
    return MakeId(s.gen, slot);
  }
  const auto bits = reinterpret_cast<uint64_t>(h.address());
  assert((bits & 1u) == 0);
  Enqueue(at, bits);
  return 0;
}

bool Simulation::Cancel(EventId id) {
  const uint32_t slot = static_cast<uint32_t>(id & 0xFFFFFFFFu);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  EventSlot& s = slots_[slot];
  if (s.gen != gen || !s.pending) return false;
  --live_events_;
  if (audit_ != nullptr) audit_->OnEventCancelled();
  // Bumping the generation invalidates the calendar entry in place; it is
  // discarded when it reaches the front.
  FreeSlot(slot);
  return true;
}

bool Simulation::Step(SimTime horizon) {
  for (;;) {
    // Peek before consuming: a stop at the horizon leaves every tier intact.
    if (win_lo_ == win_hi_ && !far_.empty()) Refill();
    const bool windowed = win_lo_ != win_hi_;
    SimTime at;
    Entry e;
    if (now_head_ != now_fifo_.size() &&
        !(windowed && window_[win_lo_].time == now_)) {
      // Entries filed for now() after the clock got here run after the
      // ones already due at this instant.
      if (now_ > horizon) return false;
      at = now_;
      e = now_fifo_[now_head_++];
      if (now_head_ == now_fifo_.size()) {
        now_fifo_.clear();
        now_head_ = 0;
      }
    } else {
      if (!windowed) return false;
      const Timed& r = window_[win_lo_];
      if (r.time > horizon) return false;
      at = r.time;
      e = r.entry;
      if (++win_lo_ == win_hi_) win_lo_ = win_hi_ = window_cap_ / 2;
    }
    const auto slot = static_cast<uint32_t>((e & 0xFFFFFFFFu) >> 1);
    const auto gen = static_cast<uint32_t>(e >> 32);
    const bool direct = (e & 1u) == 0;
    if (!direct && (slots_[slot].gen != gen || !slots_[slot].pending)) {
      continue;  // cancelled: discard
    }
    if (audit_ != nullptr) audit_->OnEventDispatched(at, now_);
    now_ = at;
    ++events_dispatched_;
    --live_events_;
    if (direct) {
      // Direct resume: the entry holds the coroutine handle, no slab slot.
      if (tracer_) tracer_(now_, 0, true);
      std::coroutine_handle<>::from_address(reinterpret_cast<void*>(e))
          .resume();
      return true;
    }
    EventSlot& s = slots_[slot];
    if (s.handle) {
      const std::coroutine_handle<> h = s.handle;
      if (tracer_) tracer_(now_, MakeId(gen, slot), true);
      FreeSlot(slot);
      h.resume();
    } else {
      // Move the callback out before freeing: invoking it may schedule new
      // events, which can reuse (or reallocate) this slot.
      detail::SmallFn fn = std::move(s.fn);
      if (tracer_) tracer_(now_, MakeId(gen, slot), false);
      FreeSlot(slot);
      fn.Invoke();
    }
    return true;
  }
}

void Simulation::Run() {
  while (!stop_requested_) {
    if (!Step(std::numeric_limits<double>::infinity())) break;
  }
}

void Simulation::RunUntil(SimTime t) {
  while (!stop_requested_) {
    if (!Step(t)) break;
  }
  if (!stop_requested_ && now_ < t) now_ = t;
}

}  // namespace declust::sim
