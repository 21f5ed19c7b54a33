// Discrete-event simulation engine (process-oriented, single-threaded).
//
// This is the project's replacement for the DeNet simulation language used by
// the paper: processes are C++20 coroutines (Task<>), time advances through a
// central event calendar, and all inter-process interaction (resources,
// channels, triggers) is mediated by the calendar so execution order is
// deterministic for a given seed.
//
// Calendar (see DESIGN.md §12): flat, inline (time, entry) records in three
// tiers. Schedules for the instant currently dispatching append to a FIFO;
// near-future events sit in a sorted window where equal times stay
// contiguous in scheduling order, so a tie at the latest instant is an
// append; events past the window's limit go to a far heap, which bounds
// per-event cost on deep calendars. Dispatch order is exactly (time,
// scheduling order).
//
// Cancellable events (ScheduleAt/ScheduleAfter) live in a slab of reusable
// records addressed by (slot, generation); cancellation flips the slot's
// generation — O(1), no hash lookup — and stale calendar entries are
// discarded lazily at dispatch. Plain coroutine resumes skip the slab
// entirely and store the handle in the entry (no caller ever cancels a
// resume), unless a tracer is armed and needs per-event ids.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <memory_resource>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/task.h"

namespace declust::sim {

/// Simulated time in milliseconds.
using SimTime = double;

/// Identifier of a scheduled event; usable with Simulation::Cancel.
/// Encodes (generation << 32) | slot; 0 is never a valid id.
using EventId = uint64_t;

namespace detail {

/// \brief Move-only type-erased callable with inline small-buffer storage.
///
/// Callables up to kInlineBytes are stored in place (no allocation); larger
/// ones fall back to the heap. The buffer is sized so every hot-path lambda
/// in the tree fits inline (tests/sim/sbo_fit_test static_asserts the
/// hardware models' callbacks), keeping the calendar allocation-free.
class SmallFn {
 public:
  static constexpr size_t kInlineBytes = 64;

  SmallFn() = default;
  SmallFn(SmallFn&& o) noexcept : ops_(o.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }
  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      Reset();
      ops_ = o.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }
  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;
  ~SmallFn() { Reset(); }

  /// True when a callable of type F is stored inline (no allocation).
  template <typename F>
  static constexpr bool FitsInline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineBytes &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename F>
  void Emplace(F&& f) {
    using D = std::decay_t<F>;
    Reset();
    if constexpr (FitsInline<F>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = InlineOps<D>();
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = HeapOps<D>();
    }
  }

  void Invoke() {
    assert(ops_ != nullptr);
    ops_->invoke(buf_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs into dst from src and destroys src.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename D>
  static const Ops* InlineOps() {
    static const Ops ops = {
        [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); },
        [](void* dst, void* src) {
          D* s = std::launder(reinterpret_cast<D*>(src));
          ::new (dst) D(std::move(*s));
          s->~D();
        },
        [](void* p) { std::launder(reinterpret_cast<D*>(p))->~D(); }};
    return &ops;
  }

  template <typename D>
  static const Ops* HeapOps() {
    static const Ops ops = {
        [](void* p) { (**std::launder(reinterpret_cast<D**>(p)))(); },
        [](void* dst, void* src) {
          ::new (dst) D*(*std::launder(reinterpret_cast<D**>(src)));
        },
        [](void* p) { delete *std::launder(reinterpret_cast<D**>(p)); }};
    return &ops;
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

}  // namespace detail

/// \brief Invariant-audit hook interface (see src/audit).
///
/// Follows the fault/obs pattern: the Simulation (and the Resources bound to
/// it) hold a nullable pointer and the default path pays only a null check.
/// When armed (`--audit`), the calendar reports every schedule / dispatch /
/// cancel transition and resources report their queue state after each
/// acquire/release, so an external auditor can enforce the conservation
/// identities continuously instead of sampling them in unit tests.
class AuditHook {
 public:
  virtual ~AuditHook() = default;

  /// A new event entered the calendar for absolute time `at` (`now` is the
  /// clock at scheduling time; `at < now` is a violation).
  virtual void OnEventScheduled(SimTime at, SimTime now) = 0;
  /// An event is about to fire at `at`; `prev_now` is the clock before the
  /// dispatch (`at < prev_now` would mean time ran backwards).
  virtual void OnEventDispatched(SimTime at, SimTime prev_now) = 0;
  /// A pending event was cancelled (O(1) generation flip).
  virtual void OnEventCancelled() = 0;
  /// A Resource changed state (acquire, enqueue, or release). Reported
  /// values are the post-transition state.
  virtual void OnResourceTransition(const char* name, int capacity,
                                    int available, size_t waiters) = 0;
};

/// \brief The event calendar and process registry.
///
/// Events scheduled for the same instant fire in scheduling order (FIFO),
/// which makes runs reproducible. A Simulation is confined to one thread;
/// parallel sweeps give each worker its own instance (src/exp/runner).
class Simulation {
 public:
  Simulation() = default;
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time (ms).
  SimTime now() const { return now_; }

  /// Starts a detached process after `delay` ms. The simulation owns the
  /// coroutine frame from this point on.
  void Spawn(Task<> task, SimTime delay = 0.0);

  /// Pooled memory for the buffers that process frames own (an engine
  /// site's page lists). It outlives every frame, since teardown destroys
  /// the still-suspended processes first, and it keeps freed blocks, so
  /// steady-state process churn recycles them without touching the heap.
  /// A block above the largest pooled size (4 KiB with libstdc++'s default
  /// options) comes from the heap on each use.
  std::pmr::memory_resource* process_memory() { return &process_memory_; }

  /// Schedules `fn` (any void() callable) to run at absolute time `at`
  /// (>= now). Callables up to detail::SmallFn::kInlineBytes are stored
  /// inline in the event slab — no allocation.
  template <typename Fn>
  EventId ScheduleAt(SimTime at, Fn&& fn) {
    assert(at >= now_);
    const uint32_t slot = AllocSlot();
    EventSlot& s = slots_[slot];
    s.fn.Emplace(std::forward<Fn>(fn));
    s.pending = true;
    Enqueue(at, SlabEntry(slot, s.gen));
    return MakeId(s.gen, slot);
  }

  /// Schedules `fn` to run after `delay` ms.
  template <typename Fn>
  EventId ScheduleAfter(SimTime delay, Fn&& fn) {
    return ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  /// Schedules resumption of a suspended coroutine at absolute time `at`.
  /// Resumes are not cancellable: the fast path stores the bare handle and
  /// returns 0. (With a tracer armed, resumes take the slab path so the
  /// trace shows per-event ids.) No-op while the simulation is being torn
  /// down.
  EventId ScheduleResume(SimTime at, std::coroutine_handle<> h);

  /// Cancels a pending event. Returns false if it already fired or was
  /// already cancelled. O(1): flips the event slot's generation; the stale
  /// calendar entry is discarded lazily when it reaches the front.
  bool Cancel(EventId id);

  /// Awaitable that suspends the calling process for `dt` ms.
  auto WaitFor(SimTime dt) {
    struct Awaiter {
      Simulation* sim;
      SimTime dt;
      bool await_ready() const noexcept { return dt <= 0.0; }
      void await_suspend(std::coroutine_handle<> h) {
        sim->ScheduleResume(sim->now_ + dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  /// Runs until the calendar is empty or Stop() is called.
  void Run();

  /// Runs until simulated time reaches `t` (events at exactly `t` fire).
  /// Afterwards now() == t unless the run stopped earlier.
  void RunUntil(SimTime t);

  /// Requests that Run/RunUntil return after the current event.
  void Stop() { stop_requested_ = true; }

  bool stop_requested() const { return stop_requested_; }

  /// Clears a previous Stop() so the simulation can be resumed.
  void ClearStop() { stop_requested_ = false; }

  /// Number of events dispatched so far (for diagnostics/benchmarks).
  uint64_t events_dispatched() const { return events_dispatched_; }

  /// Number of events currently pending (scheduled, not yet fired or
  /// cancelled).
  size_t pending_events() const { return live_events_; }

  /// High-water mark of pending_events() over the simulation's lifetime
  /// (calendar population a run actually needed; reported by obs metrics).
  size_t peak_pending_events() const { return peak_live_events_; }

  /// True during teardown; resources consult this to avoid waking processes
  /// that are about to be destroyed.
  bool draining() const { return draining_; }

  /// Installs a tracer invoked before every dispatched event with
  /// (time, event id, is_coroutine_resume). Pass nullptr to disable.
  /// Intended for debugging simulations; adds one indirect call per event.
  void SetTracer(std::function<void(SimTime, EventId, bool)> tracer) {
    tracer_ = std::move(tracer);
  }

  /// Installs an invariant auditor notified of every calendar transition
  /// (and consulted by Resources bound to this simulation). Pass nullptr to
  /// disable; the disabled path costs one predictable branch per event.
  void SetAuditHook(AuditHook* audit) { audit_ = audit; }
  AuditHook* audit_hook() const { return audit_; }

 private:
  friend void detail::ReleaseDetachedFrame(Simulation* sim,
                                           detail::PromiseBase& promise,
                                           std::coroutine_handle<> h);

  /// One reusable event record in the slab. `gen` distinguishes the slot's
  /// successive occupants: a calendar entry whose generation no longer
  /// matches was cancelled (or belongs to a previous occupant) and is
  /// skipped.
  struct EventSlot {
    std::coroutine_handle<> handle{};  // set for traced coroutine resumes
    detail::SmallFn fn;                // set for callback events
    uint32_t gen = 1;
    uint32_t next_free = kNoSlot;
    bool pending = false;
  };

  /// A calendar entry is one word. A direct coroutine resume stores the
  /// frame address (even); a slab event stores (gen << 32 | slot << 1 | 1).
  using Entry = uint64_t;

  /// Window record: entries dispatch in array order.
  struct Timed {
    SimTime time;
    Entry entry;
  };

  /// Far-heap record; `seq` orders equal times in scheduling order.
  struct FarRec {
    SimTime time;
    uint64_t seq;
    Entry entry;
  };

  static constexpr uint32_t kNoSlot = 0xFFFFFFFFu;
  /// Slot indices share the entry word with a tag bit.
  static constexpr uint32_t kMaxSlots = 0x80000000u;
  /// A window insert that would shift entries while the window holds this
  /// many first moves its latest instants to the far heap.
  static constexpr size_t kWindowCap = 512;
  /// Entries a refill moves from the far heap into an empty window (plus
  /// the rest of the last instant, so no instant is split across tiers).
  static constexpr size_t kWindowRefill = kWindowCap / 2;

  static EventId MakeId(uint32_t gen, uint32_t slot) {
    return (static_cast<uint64_t>(gen) << 32) | slot;
  }
  static Entry SlabEntry(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) |
           (static_cast<uint64_t>(slot) << 1) | 1u;
  }

  /// Pops a slot off the free list (or grows the slab).
  uint32_t AllocSlot();
  /// Returns the slot to the free list and bumps its generation.
  void FreeSlot(uint32_t idx);
  /// Files an entry for absolute time `at` (audits + accounting).
  void Enqueue(SimTime at, Entry e);
  /// Inserts into the window behind every entry at or before `at`.
  void WindowInsert(SimTime at, Entry e);
  /// Moves the window's latest instants to the far heap until it holds at
  /// most kWindowRefill entries or its last instant is not after `at`.
  void EvictWindowTail(SimTime at);
  /// Refills the empty window from the far heap.
  void Refill();
  /// Re-centres the window's live range in its buffer, growing it when
  /// the range fills more than half of it.
  void RecenterWindow();
  /// Heap order of the far tier: a min-heap on (time, seq).
  static bool Later(const FarRec& a, const FarRec& b);
  void FarPush(SimTime at, Entry e);

  // Dispatches the next event; returns false if the calendar is exhausted or
  // the next event lies beyond `horizon`.
  bool Step(SimTime horizon);

  SimTime now_ = 0.0;
  uint64_t events_dispatched_ = 0;
  size_t live_events_ = 0;
  size_t peak_live_events_ = 0;
  bool stop_requested_ = false;
  bool draining_ = false;

  std::function<void(SimTime, EventId, bool)> tracer_;
  AuditHook* audit_ = nullptr;
  /// Entries for now(), scheduled while the window or far heap may still
  /// hold older entries for the same instant; those dispatch first.
  std::vector<Entry> now_fifo_;
  size_t now_head_ = 0;
  /// Sorted window: live records are window_[win_lo_, win_hi_), all with
  /// time < window_limit_; slack on both sides lets an insert shift
  /// whichever side is shorter.
  std::unique_ptr<Timed[]> window_;
  size_t window_cap_ = 0;
  size_t win_lo_ = 0;
  size_t win_hi_ = 0;
  SimTime window_limit_ = std::numeric_limits<SimTime>::infinity();
  /// Far heap, ordered by (time, seq); every record has time >=
  /// window_limit_.
  std::vector<FarRec> far_;
  uint64_t far_seq_ = 0;
  std::vector<EventSlot> slots_;
  uint32_t free_head_ = kNoSlot;
  /// Detached (spawned) processes, linked intrusively through their
  /// promises, newest first; teardown destroys any still suspended.
  detail::PromiseBase* detached_head_ = nullptr;
  std::pmr::unsynchronized_pool_resource process_memory_;
};

}  // namespace declust::sim
