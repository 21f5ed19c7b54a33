// Coroutine task type for simulation processes.
//
// A Task<T> is a lazily-started coroutine. It can be:
//   * awaited by another task (`T r = co_await Child();`) — the child runs
//     to completion in simulated time and the parent then resumes, or
//   * detached as a top-level simulation process via Simulation::Spawn.
//
// Ownership: an awaited Task's frame is owned by the awaiting coroutine's
// awaiter object and destroyed when the co_await expression finishes. A
// spawned Task's frame is owned by the Simulation, which destroys it when
// the process finishes (or at Simulation teardown for still-suspended
// processes).
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "src/common/arena.h"

namespace declust::sim {

class Simulation;

namespace detail {

/// Bookkeeping shared by all task promises.
///
/// The promise-scoped operator new/delete route every coroutine frame
/// through the thread-local FrameCache, so steady-state process churn
/// (one frame per query, per page access, per message) recycles frames
/// without touching the heap.
struct PromiseBase {
  /// Coroutine to resume when this task completes (awaiting parent).
  std::coroutine_handle<> continuation;
  /// Set for detached (spawned) tasks so the Simulation can reclaim the
  /// frame on completion. Only a Task<> is spawned, so the registry entry is
  /// a Task<>::promise_type and its handle is recovered with from_promise.
  Simulation* detached_owner = nullptr;
  /// Intrusive links in the owning Simulation's detached-process registry
  /// (newest first, the order teardown walks; no per-spawn allocation).
  PromiseBase* det_prev = nullptr;
  PromiseBase* det_next = nullptr;

  static void* operator new(size_t n) { return FrameCache::Allocate(n); }
  static void operator delete(void* p, size_t n) {
    FrameCache::Deallocate(p, n);
  }
};

// Implemented in simulation.cc: removes the finished detached frame from the
// simulation's registry and destroys it.
void ReleaseDetachedFrame(Simulation* sim, PromiseBase& promise,
                          std::coroutine_handle<> h);

struct FinalAwaiter {
  bool await_ready() noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    PromiseBase& p = h.promise();
    if (p.continuation) return p.continuation;
    if (p.detached_owner != nullptr) {
      ReleaseDetachedFrame(p.detached_owner, p, h);
    }
    return std::noop_coroutine();
  }

  void await_resume() noexcept {}
};

}  // namespace detail

/// \brief A simulation coroutine returning T (default void).
template <typename T = void>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    T value{};

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_value(T v) { value = std::move(v); }
    void unhandled_exception() { std::terminate(); }
  };

  Task() = default;
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  /// True if this object still owns a coroutine frame.
  bool valid() const { return handle_ != nullptr; }

  /// Releases ownership of the frame (used by Simulation::Spawn).
  std::coroutine_handle<promise_type> Release() {
    return std::exchange(handle_, nullptr);
  }

  /// Awaiting a task starts it; the parent resumes once it completes.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;  // symmetric transfer: start the child
      }
      // An rvalue into the child's promise, which lives to the end of the
      // co_await's full-expression: `v = co_await Child();` moves straight
      // out of it, and the awaiting frame holds no copy of the value.
      T&& await_resume() { return std::move(child.promise().value); }
    };
    assert(handle_);
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Specialization for processes that produce no value.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    detail::FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };

  Task() = default;
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      Destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Destroy(); }

  bool valid() const { return handle_ != nullptr; }

  std::coroutine_handle<promise_type> Release() {
    return std::exchange(handle_, nullptr);
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;
      }
      void await_resume() {}
    };
    assert(handle_);
    return Awaiter{handle_};
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  void Destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace declust::sim
