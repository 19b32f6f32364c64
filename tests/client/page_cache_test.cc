#include "client/page_cache.h"

#include <gtest/gtest.h>

#include <cstring>

#include "baseline/local_spdk.h"
#include "client/storage_backend.h"
#include "flash/flash_device.h"
#include "sim/fault.h"
#include "sim/simulator.h"

namespace reflex::client {
namespace {

class PageCacheTest : public ::testing::Test {
 protected:
  PageCacheTest()
      : device_(sim_, flash::DeviceProfile::DeviceA(), 3),
        local_(sim_, device_, baseline::LocalSpdkService::Options{}),
        backend_(local_) {}

  void WritePattern(uint64_t page, uint8_t fill) {
    std::vector<uint8_t> buf(4096, fill);
    auto f = backend_.WriteBytes(page * 4096, 4096, buf.data());
    sim_.Run();
    ASSERT_TRUE(f.Ready() && f.Get().ok());
  }

  sim::Simulator sim_;
  flash::FlashDevice device_;
  baseline::LocalSpdkService local_;
  SessionStorageBackend backend_;
};

TEST_F(PageCacheTest, MissThenHit) {
  WritePattern(5, 0xAB);
  PageCache cache(sim_, backend_, 16);
  auto f1 = cache.GetPage(5 * 4096);
  sim_.Run();
  ASSERT_TRUE(f1.Ready());
  EXPECT_EQ(f1.Get()[0], 0xAB);
  EXPECT_EQ(cache.stats().misses, 1);
  auto f2 = cache.GetPage(5 * 4096 + 100);  // same page
  sim_.Run();
  ASSERT_TRUE(f2.Ready());
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST_F(PageCacheTest, ConcurrentFetchesDeduplicated) {
  WritePattern(9, 0x7);
  PageCache cache(sim_, backend_, 16);
  auto f1 = cache.GetPage(9 * 4096);
  auto f2 = cache.GetPage(9 * 4096);
  auto f3 = cache.GetPage(9 * 4096);
  sim_.Run();
  ASSERT_TRUE(f1.Ready() && f2.Ready() && f3.Ready());
  EXPECT_EQ(cache.stats().misses, 1) << "one Flash read serves all three";
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST_F(PageCacheTest, LruEviction) {
  PageCache cache(sim_, backend_, 4);
  for (uint64_t p = 0; p < 8; ++p) {
    auto f = cache.GetPage(p * 4096);
    sim_.Run();
  }
  EXPECT_EQ(cache.stats().misses, 8);
  EXPECT_GT(cache.stats().evictions, 0);
  // Recently used pages are still cached; the oldest are not.
  auto recent = cache.GetPage(7 * 4096);
  sim_.Run();
  EXPECT_EQ(cache.stats().hits, 1);
  auto old = cache.GetPage(0);
  sim_.Run();
  EXPECT_EQ(cache.stats().misses, 9);
}

TEST_F(PageCacheTest, InvalidateDropsPages) {
  WritePattern(3, 0x11);
  PageCache cache(sim_, backend_, 16);
  auto f1 = cache.GetPage(3 * 4096);
  sim_.Run();
  EXPECT_EQ(f1.Get()[0], 0x11);
  // New data lands; without invalidation the cache would stay stale.
  WritePattern(3, 0x22);
  cache.Invalidate(3 * 4096, 4096);
  auto f2 = cache.GetPage(3 * 4096);
  sim_.Run();
  EXPECT_EQ(f2.Get()[0], 0x22);
  EXPECT_EQ(cache.stats().misses, 2);
}

TEST_F(PageCacheTest, InvalidateCoversInFlightFetch) {
  WritePattern(6, 0xAA);
  PageCache cache(sim_, backend_, 16);
  // Start a fetch but do not run the simulator: the Flash read has
  // snapshotted the old contents and is now in flight.
  auto f = cache.GetPage(6 * 4096);
  ASSERT_FALSE(f.Ready());
  // New data lands (the store is updated at submit time) and the range
  // is invalidated while the old read is still outstanding.
  std::vector<uint8_t> buf(4096, 0xBB);
  auto w = backend_.WriteBytes(6 * 4096, 4096, buf.data());
  cache.Invalidate(6 * 4096, 4096);
  sim_.Run();
  ASSERT_TRUE(w.Ready() && w.Get().ok());
  ASSERT_TRUE(f.Ready());
  ASSERT_NE(f.Get(), nullptr);
  EXPECT_EQ(f.Get()[0], 0xBB)
      << "the outstanding fetch must re-read the backend instead of "
         "inserting pre-invalidation data";
  EXPECT_EQ(cache.stats().invalidated_refetches, 1);

  // The refetched page is genuinely cached (no stale residue).
  auto again = cache.GetPage(6 * 4096);
  sim_.Run();
  EXPECT_EQ(again.Get()[0], 0xBB);
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST_F(PageCacheTest, FailedFetchSurfacesAtOnceAndRefetches) {
  // The cache does not retry: one failed backend read resolves the
  // fetch to nullptr (callers decide whether that is fatal), and read
  // retransmission is left to the backend's client library.
  WritePattern(2, 0xCD);
  PageCache cache(sim_, backend_, 16);
  sim::FaultPlan plan(sim_, 11);
  device_.SetFaultPlan(&plan);
  plan.SetProbability(sim::FaultKind::kFlashReadError, 1.0);
  auto f = cache.GetPage(2 * 4096);
  sim_.Run();
  ASSERT_TRUE(f.Ready());
  EXPECT_EQ(f.Get(), nullptr);
  EXPECT_EQ(device_.stats().read_errors, 1)
      << "a failed fetch makes exactly one backend read";
  EXPECT_EQ(device_.stats().reads_completed, 0);
  EXPECT_EQ(cache.stats().fetch_failures, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  // The failed fetch freed its entry: with the fault cleared, the next
  // access misses again and reads the page.
  plan.SetProbability(sim::FaultKind::kFlashReadError, 0.0);
  auto f2 = cache.GetPage(2 * 4096);
  sim_.Run();
  ASSERT_TRUE(f2.Ready());
  ASSERT_NE(f2.Get(), nullptr);
  EXPECT_EQ(f2.Get()[0], 0xCD);
  EXPECT_EQ(device_.stats().read_errors, 1);
  EXPECT_EQ(device_.stats().reads_completed, 1);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().fetch_failures, 1);
}

TEST_F(PageCacheTest, BoundsOutstandingIo) {
  PageCache cache(sim_, backend_, 256, /*max_outstanding=*/2);
  for (uint64_t p = 0; p < 50; ++p) cache.GetPage(p * 4096);
  sim_.Run();
  EXPECT_EQ(cache.stats().misses, 50);
}

}  // namespace
}  // namespace reflex::client
