#ifndef REFLEX_SIM_TASK_H_
#define REFLEX_SIM_TASK_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>

#include "sim/block_pool.h"
#include "sim/logging.h"
#include "sim/ring.h"
#include "sim/simulator.h"
#include "sim/time.h"

#ifdef REFLEX_CORO_DEBUG
#include <source_location>

#include "sim/coro_debug.h"
#endif

namespace reflex::sim {

/**
 * A detached simulation process implemented as a C++20 coroutine.
 *
 * Tasks start eagerly and own their own lifetime: the coroutine frame
 * is destroyed automatically when the body finishes. Simulation
 * processes communicate through Future/Promise pairs, Semaphores, or
 * explicit callbacks rather than by joining Task objects.
 *
 * Ownership rulebook (DESIGN.md section 18, enforced by corolint):
 * a Task that can outlive the code that spawned it -- any infinite
 * polling loop, or any await on an event that may never fire -- must
 * publish its handle via `co_await SelfHandle(&slot_)` so a designated
 * owner can destroy() the parked frame at teardown, and must clear
 * that slot on every normal-return path. Parameters are passed by
 * value or pointer, never by reference, and coroutine lambdas never
 * capture: the frame suspends, and referents/captures die under it.
 *
 * With -DREFLEX_CORO_DEBUG=ON every frame registers itself with the
 * coro_debug registry on creation (tagged with the coroutine's name)
 * and unregisters on destruction; ~Simulator() asserts that no frames
 * are left alive. See src/sim/coro_debug.h.
 *
 * Usage:
 *   Task ServerLoop(Simulator& sim, ...) {
 *     co_await SelfHandle(&loop_handle_);
 *     for (;;) {
 *       co_await Delay(sim, 5 * kMicrosecond);
 *       ...
 *     }
 *   }
 */
class Task {
 public:
  struct promise_type {
#ifdef REFLEX_CORO_DEBUG
    // The defaulted source_location resolves to the coroutine that
    // this promise is synthesized into, tagging the frame with its
    // creation site for the teardown report.
    explicit promise_type(
        std::source_location loc = std::source_location::current()) {
      internal::CoroDebugRegister(
          std::coroutine_handle<promise_type>::from_promise(*this).address(),
          loc.function_name(), loc.file_name(), loc.line());
    }
    ~promise_type() {
      internal::CoroDebugUnregister(
          std::coroutine_handle<promise_type>::from_promise(*this).address());
    }
#endif
    // Frames come from the recycling pool: a request's coroutines
    // reuse the frames of the ones that finished before them.
    static void* operator new(size_t bytes) {
      return BlockPool::Allocate(bytes);
    }
    static void operator delete(void* frame, size_t bytes) noexcept {
      BlockPool::Release(frame, bytes);
    }

    Task get_return_object() noexcept { return Task{}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() {
      REFLEX_PANIC("unhandled exception escaped a sim::Task");
    }
  };
};

/**
 * Awaitable that exposes the current coroutine's own handle without
 * suspending it. A long-lived loop stores the handle into a member its
 * owner can see; the owner may then destroy() the frame at teardown if
 * the loop is still parked on an awaitable whose wake event will never
 * run (e.g. a simulation that ends while the loop waits for work). The
 * coroutine must clear the slot before finishing normally -- with
 * suspend_never final_suspend the frame self-destructs and the stored
 * handle would dangle.
 */
class SelfHandle {
 public:
  explicit SelfHandle(std::coroutine_handle<>* out) : out_(out) {}

  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) noexcept {
    *out_ = h;
    return false;  // capture only; resume immediately
  }
  void await_resume() const noexcept {}

 private:
  std::coroutine_handle<>* out_;
};

/**
 * Awaitable that suspends the current task for `delay` of simulated
 * time. A zero (or negative) delay still round-trips through the event
 * queue so that same-time events retain FIFO ordering.
 */
class Delay {
 public:
  Delay(Simulator& sim, TimeNs delay) : sim_(sim), delay_(delay) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    sim_.ScheduleAfter(delay_ > 0 ? delay_ : 0, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  TimeNs delay_;
};

/**
 * A Delay whose wakeup event is recorded in `*event`, so the owner of
 * a frame parked on it can Cancel() the wakeup before destroying the
 * frame. Schedules exactly what Delay schedules.
 */
class CancellableDelay {
 public:
  CancellableDelay(Simulator& sim, TimeNs delay, TimerHandle* event)
      : sim_(sim), delay_(delay), event_(event) {}

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    *event_ =
        sim_.ScheduleAfter(delay_ > 0 ? delay_ : 0, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  TimeNs delay_;
  TimerHandle* event_;
};

namespace internal {

template <typename T>
struct FutureState {
  Simulator* sim = nullptr;
  std::optional<T> value;
  std::coroutine_handle<> waiter;
  /** The waiter's resume event, once Deliver() has scheduled it. */
  TimerHandle resume;

  void Deliver() {
    if (waiter) {
      auto h = waiter;
      waiter = nullptr;
      // Resume through the event queue: keeps stack depth bounded and
      // event ordering deterministic.
      resume = sim->ScheduleAfter(0, [h] { h.resume(); });
    }
  }
};

}  // namespace internal

template <typename T>
class Promise;

/**
 * Single-shot value channel between simulation processes. A Future is
 * awaited (at most one waiter); its Promise is fulfilled exactly once.
 * Copies share the same underlying state, which lives in a block
 * from the recycling pool (see BlockPool).
 */
template <typename T>
class Future {
 public:
  Future()
      : state_(std::allocate_shared<internal::FutureState<T>>(
            PoolAllocator<internal::FutureState<T>>())) {}

  bool Ready() const { return state_->value.has_value(); }

  /** Returns the value. Requires Ready(). */
  const T& Get() const {
    REFLEX_CHECK(state_->value.has_value());
    return *state_->value;
  }

  bool await_ready() const noexcept { return state_->value.has_value(); }
  void await_suspend(std::coroutine_handle<> h) {
    REFLEX_CHECK(!state_->waiter);  // single waiter
    state_->waiter = h;
  }
  T await_resume() {
    REFLEX_CHECK(state_->value.has_value());
    return std::move(*state_->value);
  }

  /**
   * Forgets the coroutine parked on this future: Set() will not resume
   * it, and a resume that Set() has already scheduled is cancelled.
   * For an owner about to destroy() that parked frame while the
   * promise lives on elsewhere. A no-op when nothing is parked.
   */
  void Abandon() {
    internal::FutureState<T>& st = *state_;
    st.waiter = nullptr;
    if (st.resume.issued()) st.sim->Cancel(st.resume);
  }

 private:
  friend class Promise<T>;
  std::shared_ptr<internal::FutureState<T>> state_;
};

/** Producer side of a Future<T>. */
template <typename T>
class Promise {
 public:
  explicit Promise(Simulator& sim) {
    future_.state_->sim = &sim;
  }

  Future<T> GetFuture() const { return future_; }

  /** Fulfills the future; any waiter resumes via the event queue. */
  void Set(T value) {
    auto& st = *future_.state_;
    REFLEX_CHECK(!st.value.has_value());
    st.value = std::move(value);
    st.Deliver();
  }

 private:
  Future<T> future_;
};

/** Tag type so Future<Unit>/Promise<Unit> model void completions. */
struct Unit {};

using VoidFuture = Future<Unit>;
using VoidPromise = Promise<Unit>;

/**
 * Counted resource with FIFO waiters. Models bounded resources such as
 * Flash write-buffer slots or client queue-depth limits.
 *
 * Ownership rule: a coroutine parked in Acquire() is owned by whoever
 * may destroy() its frame, and that owner must not destroy the frame
 * while it is still queued here -- Release() would resume freed
 * memory. Either drain the semaphore (release until Waiters()==0 and
 * let the waiters finish) before tearing frames down, or never
 * destroy a frame that is mid-Acquire. Under REFLEX_CORO_DEBUG the
 * resume path asserts the frame is still registered and panics with a
 * diagnosis instead of corrupting memory.
 */
class Semaphore {
 public:
  Semaphore(Simulator& sim, int64_t initial)
      : sim_(sim), available_(initial) {}

  /** Awaitable acquire of one unit. */
  auto Acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() const noexcept { return sem.TryAcquire(); }
      void await_suspend(std::coroutine_handle<> h) {
        sem.waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  /** Non-blocking acquire. */
  bool TryAcquire() {
    if (available_ > 0 && waiters_.empty()) {
      --available_;
      return true;
    }
    if (available_ > 0) {
      // Units available but waiters queued: preserve FIFO fairness.
      return false;
    }
    return false;
  }

  /** Releases one unit, waking the oldest waiter if any. */
  void Release() {
    if (!waiters_.empty()) {
      auto h = waiters_.pop_front();
      sim_.ScheduleAfter(0, [h] {
#ifdef REFLEX_CORO_DEBUG
        if (!CoroDebugIsLive(h.address())) {
          REFLEX_PANIC(
              "sim::Semaphore::Release would resume a destroyed coroutine "
              "frame: the waiter was destroy()ed while still queued in the "
              "semaphore (see the ownership rule on sim::Semaphore)");
        }
#endif
        h.resume();
      });
    } else {
      ++available_;
    }
  }

  int64_t Available() const { return available_; }
  size_t Waiters() const { return waiters_.size(); }

 private:
  Simulator& sim_;
  int64_t available_;
  /** FIFO waiters; a ring keeps its capacity, so waits never allocate
   * once the queue has reached its high-water mark. */
  Ring<std::coroutine_handle<>> waiters_;
};

/**
 * Completion barrier: waits until Arrive() has been called `expected`
 * times. Useful for joining a fan-out of detached tasks.
 */
class Barrier {
 public:
  Barrier(Simulator& sim, int64_t expected)
      : promise_(sim), remaining_(expected) {
    REFLEX_CHECK(expected >= 0);
    if (expected == 0) promise_.Set(Unit{});
  }

  void Arrive() {
    REFLEX_CHECK(remaining_ > 0);
    if (--remaining_ == 0) promise_.Set(Unit{});
  }

  VoidFuture Done() const { return promise_.GetFuture(); }

 private:
  VoidPromise promise_;
  int64_t remaining_;
};

}  // namespace reflex::sim

#endif  // REFLEX_SIM_TASK_H_
