#include "client/block_device.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "sim/fault.h"
#include "testing/harness.h"

namespace reflex::client {
namespace {

using sim::Micros;
using sim::Millis;
using testing::Harness;

class BlockDeviceTest : public ::testing::Test {
 protected:
  BlockDeviceTest() : tenant_(harness_.LcTenant(150000, 0.8)) {}

  BlockDevice MakeDevice(BlockDevice::Options options = {}) {
    return BlockDevice(harness_.sim, harness_.server,
                       harness_.client_machine, tenant_->handle(), options);
  }

  Harness harness_;
  core::Tenant* tenant_;
};

TEST_F(BlockDeviceTest, DataRoundTrip) {
  BlockDevice bdev = MakeDevice();
  std::vector<uint8_t> out(8192);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(i * 13);
  }
  auto w = bdev.Write(1 << 20, 8192, out.data());
  ASSERT_TRUE(harness_.RunUntilReady([&] { return w.Ready(); }));
  ASSERT_TRUE(w.Get().ok());

  std::vector<uint8_t> in(8192, 0);
  auto r = bdev.Read(1 << 20, 8192, in.data());
  ASSERT_TRUE(harness_.RunUntilReady([&] { return r.Ready(); }));
  ASSERT_TRUE(r.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 8192), 0);
}

TEST_F(BlockDeviceTest, LargeRequestSplitAcrossContexts) {
  BlockDevice::Options options;
  options.max_request_sectors = 64;  // 32KB chunks
  BlockDevice bdev = MakeDevice(options);
  std::vector<uint8_t> out(1 << 20);  // 1MB => 32 chunks
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(i % 251);
  }
  auto w = bdev.Write(0, 1 << 20, out.data());
  ASSERT_TRUE(harness_.RunUntilReady([&] { return w.Ready(); }));
  ASSERT_TRUE(w.Get().ok());
  std::vector<uint8_t> in(1 << 20, 0);
  auto r = bdev.Read(0, 1 << 20, in.data());
  ASSERT_TRUE(harness_.RunUntilReady([&] { return r.Ready(); }));
  ASSERT_TRUE(r.Get().ok());
  EXPECT_EQ(in, out);
}

TEST_F(BlockDeviceTest, FlashReadErrorOnOneChunkFailsWholeRequest) {
  // A 16KB read split into four 4KB chunks: chunk i reads page i, which
  // lives on die i. A media error pinned to die 2 fails the third chunk
  // only; the request completes with that error, and no chunk is sent
  // twice.
  sim::FaultPlan plan(harness_.sim, 7);
  plan.SetProbability(sim::FaultKind::kFlashReadError, /*id=*/2, 1.0);
  harness_.device.SetFaultPlan(&plan);
  BlockDevice::Options options;
  options.max_request_sectors = 8;
  BlockDevice bdev = MakeDevice(options);
  const int64_t rx_before = harness_.server.thread(0).stats().requests_rx;

  std::vector<uint8_t> in(16384);
  auto r = bdev.Read(0, 16384, in.data());
  ASSERT_TRUE(harness_.RunUntilReady([&] { return r.Ready(); }));
  EXPECT_EQ(r.Get().status, core::ReqStatus::kDeviceError);
  EXPECT_EQ(harness_.server.thread(0).stats().requests_rx - rx_before, 4);
  EXPECT_EQ(harness_.device.stats().read_errors, 1);
  EXPECT_EQ(harness_.device.stats().reads_completed, 3);
}

TEST_F(BlockDeviceTest, UnloadedLatencyIncludesKernelPath) {
  // Table 2 context: the ReFlex block-device path adds the client
  // kernel block + TCP layers over the raw user-level client (~99us),
  // so a 4KB read lands around 110-145us.
  BlockDevice bdev = MakeDevice();
  sim::Histogram lat;
  for (int i = 0; i < 200; ++i) {
    auto r = bdev.Read(static_cast<uint64_t>(i) * 4096, 4096, nullptr);
    ASSERT_TRUE(harness_.RunUntilReady([&] { return r.Ready(); }));
    lat.Record(r.Get().Latency());
  }
  EXPECT_GT(lat.Mean() / 1e3, 100.0);
  EXPECT_LT(lat.Mean() / 1e3, 160.0);
}

sim::Task ClosedLoopReader(sim::Simulator& sim, BlockDevice& bdev,
                           sim::TimeNs end, int64_t* completed,
                           uint64_t salt) {
  uint64_t i = 0;
  while (sim.Now() < end) {
    co_await bdev.Read(4096 * ((salt * 977 + i++) % 4096), 4096, nullptr);
    ++*completed;
  }
}

TEST_F(BlockDeviceTest, PerContextThroughputCeiling) {
  // Paper section 4.2: the Linux TCP stack supports ~70K messages per
  // second per thread, so a single blk-mq context tops out there.
  BlockDevice::Options options;
  options.num_contexts = 1;
  BlockDevice bdev = MakeDevice(options);

  int64_t completed = 0;
  const sim::TimeNs end = Millis(200);
  for (int q = 0; q < 32; ++q) {
    ClosedLoopReader(harness_.sim, bdev, end, &completed, q);
  }
  harness_.sim.RunUntil(end + Millis(50));

  const double iops = static_cast<double>(completed) / sim::ToSeconds(end);
  EXPECT_LT(iops, 90000.0);
  EXPECT_GT(iops, 40000.0);
}

TEST_F(BlockDeviceTest, MoreContextsScaleThroughput) {
  BlockDevice::Options one;
  one.num_contexts = 1;
  BlockDevice::Options six;
  six.num_contexts = 6;

  auto measure = [&](BlockDevice::Options options) {
    BlockDevice bdev = MakeDevice(options);
    int64_t completed = 0;
    const sim::TimeNs start = harness_.sim.Now();
    const sim::TimeNs end = start + Millis(100);
    for (int q = 0; q < 64; ++q) {
      ClosedLoopReader(harness_.sim, bdev, end, &completed, q);
    }
    harness_.sim.RunUntil(end + Millis(50));
    return static_cast<double>(completed) / sim::ToSeconds(end - start);
  };

  const double one_ctx = measure(one);
  const double six_ctx = measure(six);
  EXPECT_GT(six_ctx, 3.0 * one_ctx);
}

TEST_F(BlockDeviceTest, CapacityMatchesDevice) {
  BlockDevice bdev = MakeDevice();
  EXPECT_EQ(bdev.CapacityBytes(),
            harness_.device.profile().capacity_sectors * 512ULL);
}

/** FNV-1a-64 over the bytes of `value`, folded into `*hash`. */
void Fnv1a(uint64_t* hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    *hash ^= (value >> (8 * i)) & 0xff;
    *hash *= 0x100000001b3ULL;
  }
}

TEST_F(BlockDeviceTest, ScriptedMixKeepsItsEventOrder) {
  // A scripted mix of 1-chunk and split reads and writes over three
  // contexts, many in flight at once. Every (issue, complete, status)
  // and the number of events the simulator ran are pinned to the
  // values the driver produced before its join was rewritten, so any
  // change to the events a request schedules, or to their order,
  // shows up here. The bytes every read delivered are pinned too:
  // reads race writes to the same pages.
  BlockDevice::Options options;
  options.num_contexts = 3;
  options.max_request_sectors = 16;  // 8KB chunks
  BlockDevice bdev = MakeDevice(options);
  constexpr int kOps = 36;
  constexpr uint32_t kSizes[] = {4096, 12288, 32768, 8192};
  std::vector<std::vector<uint8_t>> buffers(kOps);
  std::vector<sim::Future<IoResult>> results(kOps);
  for (int i = 0; i < kOps; ++i) {
    const uint32_t bytes = kSizes[i % 4];
    const bool is_write = i % 3 == 0;
    // Reads land on written and never-written ranges alike.
    const uint64_t offset = static_cast<uint64_t>((i * 5) % 24) * 8192;
    buffers[i].assign(bytes, static_cast<uint8_t>(i + 1));
    harness_.sim.ScheduleAt(
        Micros(3) * i, [&bdev, &buffers, &results, i, bytes, is_write,
                        offset] {
          results[i] = is_write
                           ? bdev.Write(offset, bytes, buffers[i].data())
                           : bdev.Read(offset, bytes, buffers[i].data());
        });
  }
  harness_.sim.RunUntil(Millis(5));
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(results[i].Ready()) << "op " << i;
    const IoResult& r = results[i].Get();
    Fnv1a(&hash, static_cast<uint64_t>(r.issue_time));
    Fnv1a(&hash, static_cast<uint64_t>(r.complete_time));
    Fnv1a(&hash, static_cast<uint64_t>(r.status));
    if (i % 3 != 0) {
      for (uint8_t byte : buffers[i]) Fnv1a(&hash, byte);
    }
  }
  EXPECT_EQ(hash, 0x86a692cece3388d5ULL);
  EXPECT_EQ(harness_.sim.EventsProcessed(), 1332);
}

}  // namespace
}  // namespace reflex::client
