#include "sim/task.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <vector>

#include "sim/simulator.h"

namespace reflex::sim {
namespace {

Task DelayTwice(Simulator& sim, std::vector<TimeNs>& log) {
  log.push_back(sim.Now());
  co_await Delay(sim, 100);
  log.push_back(sim.Now());
  co_await Delay(sim, 50);
  log.push_back(sim.Now());
}

TEST(TaskTest, DelayAdvancesSimTime) {
  Simulator sim;
  std::vector<TimeNs> log;
  DelayTwice(sim, log);
  sim.Run();
  EXPECT_EQ(log, (std::vector<TimeNs>{0, 100, 150}));
}

Task Producer(Simulator& sim, Promise<int> p) {
  co_await Delay(sim, 500);
  p.Set(42);
}

Task Consumer(Simulator& sim, Future<int> f, int& result, TimeNs& when) {
  result = co_await f;
  when = sim.Now();
}

TEST(TaskTest, FuturePromiseHandoff) {
  Simulator sim;
  Promise<int> p(sim);
  int result = 0;
  TimeNs when = -1;
  Consumer(sim, p.GetFuture(), result, when);
  Producer(sim, p);
  sim.Run();
  EXPECT_EQ(result, 42);
  EXPECT_EQ(when, 500);
}

TEST(TaskTest, AwaitingReadyFutureDoesNotSuspend) {
  Simulator sim;
  Promise<int> p(sim);
  p.Set(7);
  int result = 0;
  TimeNs when = -1;
  Consumer(sim, p.GetFuture(), result, when);
  sim.Run();
  EXPECT_EQ(result, 7);
  EXPECT_EQ(when, 0);
}

TEST(TaskTest, FutureReadyAndGet) {
  Simulator sim;
  Promise<int> p(sim);
  Future<int> f = p.GetFuture();
  EXPECT_FALSE(f.Ready());
  p.Set(9);
  EXPECT_TRUE(f.Ready());
  EXPECT_EQ(f.Get(), 9);
}

Task Worker(Simulator& sim, Semaphore& sem, TimeNs hold, std::vector<int>& log,
            int id) {
  co_await sem.Acquire();
  log.push_back(id);
  co_await Delay(sim, hold);
  sem.Release();
}

TEST(TaskTest, SemaphoreSerializesAccess) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> log;
  for (int i = 0; i < 4; ++i) Worker(sim, sem, 100, log, i);
  sim.Run();
  // FIFO order, one at a time.
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(sem.Available(), 1);
  EXPECT_EQ(sem.Waiters(), 0u);
}

TEST(TaskTest, SemaphoreAllowsConcurrencyUpToCount) {
  Simulator sim;
  Semaphore sem(sim, 3);
  std::vector<int> log;
  TimeNs all_started = -1;
  for (int i = 0; i < 3; ++i) Worker(sim, sem, 1000, log, i);
  sim.ScheduleAt(1, [&] { all_started = static_cast<TimeNs>(log.size()); });
  sim.Run();
  EXPECT_EQ(all_started, 3);  // none had to wait
}

TEST(TaskTest, SemaphoreTryAcquire) {
  Simulator sim;
  Semaphore sem(sim, 2);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
  sem.Release();
  EXPECT_TRUE(sem.TryAcquire());
}

Task ArriveAfter(Simulator& sim, Barrier& barrier, TimeNs t) {
  co_await Delay(sim, t);
  barrier.Arrive();
}

Task WaitBarrier(Barrier& barrier, TimeNs& done, Simulator& sim) {
  co_await barrier.Done();
  done = sim.Now();
}

TEST(TaskTest, BarrierWaitsForAllArrivals) {
  Simulator sim;
  Barrier barrier(sim, 3);
  TimeNs done = -1;
  WaitBarrier(barrier, done, sim);
  ArriveAfter(sim, barrier, 100);
  ArriveAfter(sim, barrier, 300);
  ArriveAfter(sim, barrier, 200);
  sim.Run();
  EXPECT_EQ(done, 300);
}

TEST(TaskTest, BarrierWithZeroExpectedIsImmediatelyDone) {
  Simulator sim;
  Barrier barrier(sim, 0);
  EXPECT_TRUE(barrier.Done().Ready());
}

Task Chain(Simulator& sim, int depth, Promise<int> out) {
  if (depth == 0) {
    out.Set(0);
    co_return;
  }
  Promise<int> inner(sim);
  Chain(sim, depth - 1, inner);
  int v = co_await inner.GetFuture();
  out.Set(v + 1);
}

TEST(TaskTest, DeepChainsDoNotOverflowStack) {
  Simulator sim;
  Promise<int> p(sim);
  Chain(sim, 5000, p);
  sim.Run();
  EXPECT_TRUE(p.GetFuture().Ready());
  EXPECT_EQ(p.GetFuture().Get(), 5000);
}

Task ParkOn(Future<int> f, std::coroutine_handle<>* frame, bool* resumed) {
  co_await SelfHandle(frame);
  co_await f;
  *resumed = true;
  *frame = nullptr;
}

// An owner destroying a frame parked on a future whose promise lives
// on: after Abandon() neither a later Set() nor a resume that Set()
// already scheduled touches the destroyed frame (ASan reports the use
// after free otherwise).
TEST(TaskTest, AbandonedFutureResumesNoDestroyedWaiter) {
  for (bool set_before_teardown : {false, true}) {
    SCOPED_TRACE(set_before_teardown ? "resume already scheduled"
                                     : "waiter still parked");
    Simulator sim;
    Promise<int> promise(sim);
    Future<int> future = promise.GetFuture();
    std::coroutine_handle<> frame;
    bool resumed = false;
    ParkOn(future, &frame, &resumed);
    ASSERT_TRUE(frame);
    if (set_before_teardown) {
      promise.Set(1);
      EXPECT_EQ(sim.PendingEvents(), 1u);
    }
    future.Abandon();
    frame.destroy();
    if (!set_before_teardown) promise.Set(1);
    EXPECT_EQ(sim.PendingEvents(), 0u);
    sim.Run();
    EXPECT_FALSE(resumed);
    EXPECT_TRUE(future.Ready());
  }
}

Task SleepOn(Simulator* sim, TimeNs delay, TimerHandle* event,
             std::coroutine_handle<>* frame, TimeNs* woke) {
  co_await SelfHandle(frame);
  co_await CancellableDelay(*sim, delay, event);
  *woke = sim->Now();
  *frame = nullptr;
}

TEST(TaskTest, CancellableDelayWakesLikeDelayOrNotAtAll) {
  Simulator sim;
  TimerHandle kept;
  TimerHandle cancelled;
  std::coroutine_handle<> kept_frame;
  std::coroutine_handle<> cancelled_frame;
  TimeNs kept_woke = -1;
  TimeNs cancelled_woke = -1;
  SleepOn(&sim, 300, &kept, &kept_frame, &kept_woke);
  SleepOn(&sim, 300, &cancelled, &cancelled_frame, &cancelled_woke);
  EXPECT_TRUE(kept.issued());
  EXPECT_TRUE(sim.Cancel(cancelled));
  cancelled_frame.destroy();
  sim.Run();
  EXPECT_FALSE(kept_frame) << "the kept sleeper ran to its end";
  EXPECT_EQ(kept_woke, 300);
  EXPECT_EQ(cancelled_woke, -1);
  EXPECT_FALSE(sim.Cancel(kept)) << "the wakeup already fired";
}

}  // namespace
}  // namespace reflex::sim
