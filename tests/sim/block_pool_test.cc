// BlockPool (recycled coroutine frames and future states),
// InlineFunction (the heap-free callback of the request path) and
// SlotPool's in-place reuse.

#include "sim/block_pool.h"

#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_function.h"
#include "sim/simulator.h"
#include "sim/slot_pool.h"
#include "sim/task.h"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#endif

namespace reflex::sim {
namespace {

TEST(BlockPoolTest, ReleasedBlockIsReusedForItsSizeClass) {
  void* a = BlockPool::Allocate(100);
  BlockPool::Release(a, 100);
  // 97..112 bytes share a 16-byte class: the next request reuses it.
  void* b = BlockPool::Allocate(110);
  EXPECT_EQ(a, b);
  void* c = BlockPool::Allocate(100);
  EXPECT_NE(b, c);
  BlockPool::Release(b, 110);
  BlockPool::Release(c, 100);
}

TEST(BlockPoolTest, LargeBlocksBypassThePool) {
  void* big = BlockPool::Allocate(BlockPool::kMaxBytes + 1);
  ASSERT_NE(big, nullptr);
  BlockPool::Release(big, BlockPool::kMaxBytes + 1);
}

/** Finishes at once, reporting where its frame lives. */
Task RecordFrame(void** frame) {
  std::coroutine_handle<> self;
  co_await SelfHandle(&self);
  *frame = self.address();
}

TEST(BlockPoolTest, FinishedTaskFrameIsRecycled) {
  void* first = nullptr;
  void* second = nullptr;
  RecordFrame(&first);
  RecordFrame(&second);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, second) << "the second frame reuses the first's block";
}

#ifdef __SANITIZE_ADDRESS__
TEST(BlockPoolTest, ReleasedBlocksArePoisoned) {
  void* frame = nullptr;
  RecordFrame(&frame);
  ASSERT_NE(frame, nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(frame))
      << "a released frame block";

  Simulator sim;
  const void* state = nullptr;
  {
    Promise<int> promise(sim);
    Future<int> future = promise.GetFuture();
    promise.Set(7);
    state = &future.Get();
    EXPECT_FALSE(__asan_address_is_poisoned(state));
  }
  EXPECT_TRUE(__asan_address_is_poisoned(state))
      << "a released future-state block";
}
#endif

TEST(InlineFunctionTest, EmptyByDefaultAndFromNullptr) {
  InlineFunction<int(int)> none;
  InlineFunction<int(int)> null = nullptr;
  EXPECT_FALSE(none);
  EXPECT_FALSE(null);
}

TEST(InlineFunctionTest, CallsAMutableTarget) {
  int calls = 0;
  InlineFunction<int(int)> f = [&calls, total = 0](int x) mutable {
    ++calls;
    return total += x;
  };
  ASSERT_TRUE(f);
  EXPECT_EQ(f(2), 2);
  EXPECT_EQ(f(3), 5);
  EXPECT_EQ(calls, 2);
}

TEST(InlineFunctionTest, MovesAndDestroysANonTrivialTargetOnce) {
  auto token = std::make_shared<int>(1);
  {
    InlineFunction<long()> a = [token] { return token.use_count(); };
    EXPECT_EQ(token.use_count(), 2);
    InlineFunction<long()> b = std::move(a);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b(), 2);
    InlineFunction<long()> c;
    c = std::move(b);
    EXPECT_EQ(c(), 2);
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SlotPoolTest, AcquireReusesTheReleasedValueInPlace) {
  SlotPool<std::vector<int>> pool;
  const uint32_t first = pool.Acquire();
  EXPECT_TRUE(pool[first].empty()) << "a new slot is default-constructed";
  pool[first].assign(100, 7);
  const uint32_t second = pool.Acquire();
  EXPECT_NE(second, first);
  pool.Release(first);
  EXPECT_EQ(pool.live(), 1u);
  // Newest freed first, holding its old contents and capacity.
  const uint32_t again = pool.Acquire();
  EXPECT_EQ(again, first);
  EXPECT_EQ(pool[again].size(), 100u);
  pool[again].clear();
  EXPECT_GE(pool[again].capacity(), 100u);
  EXPECT_EQ(pool.capacity(), 2u);
}

}  // namespace
}  // namespace reflex::sim
