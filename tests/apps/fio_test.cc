#include "apps/fio/fio.h"

#include <gtest/gtest.h>

#include "baseline/local_spdk.h"
#include "client/storage_backend.h"
#include "flash/flash_device.h"
#include "sim/simulator.h"

namespace reflex::apps::fio {
namespace {

using sim::Millis;

class FioTest : public ::testing::Test {
 protected:
  FioTest()
      : device_(sim_, flash::DeviceProfile::DeviceA(), 9),
        local_(sim_, device_, baseline::LocalSpdkService::Options{2, sim::TimeNs(1150), 33}),
        backend_(local_) {}

  FioResult RunJob(FioJob job, sim::TimeNs warm = Millis(20),
                   sim::TimeNs end = Millis(120)) {
    FioRunner runner(sim_, backend_, job);
    // Windows are relative to the current simulation time so several
    // jobs can run back to back in one fixture.
    runner.Run(sim_.Now() + warm, sim_.Now() + end);
    auto done = runner.Done();
    while (!done.Ready()) sim_.RunUntil(sim_.Now() + Millis(5));
    return runner.result();
  }

  sim::Simulator sim_;
  flash::FlashDevice device_;
  baseline::LocalSpdkService local_;
  client::SessionStorageBackend backend_;
};

TEST_F(FioTest, RandReadProducesThroughputAndLatency) {
  FioJob job;
  job.num_threads = 2;
  job.queue_depth = 16;
  job.read_fraction = 1.0;
  FioResult r = RunJob(job);
  EXPECT_GT(r.iops, 10000.0);
  EXPECT_GT(r.read_latency.Count(), 100);
  EXPECT_EQ(r.errors, 0);
  // Throughput consistent with IOPS * block size.
  EXPECT_NEAR(r.throughput_mb_s, r.iops * 4096 / 1e6,
              r.throughput_mb_s * 0.02);
}

TEST_F(FioTest, HigherQueueDepthRaisesThroughputAndLatency) {
  FioJob low;
  low.queue_depth = 1;
  FioJob high;
  high.queue_depth = 64;
  FioResult rl = RunJob(low);
  FioResult rh = RunJob(high);
  EXPECT_GT(rh.iops, 5.0 * rl.iops);
  EXPECT_GT(rh.read_latency.Percentile(0.95),
            rl.read_latency.Percentile(0.95));
}

TEST_F(FioTest, MixedWorkloadRecordsBothDirections) {
  FioJob job;
  job.read_fraction = 0.5;
  job.queue_depth = 8;
  FioResult r = RunJob(job);
  EXPECT_GT(r.read_latency.Count(), 0);
  EXPECT_GT(r.write_latency.Count(), 0);
  // Writes ack from the buffer: much faster than reads at low load.
  EXPECT_LT(r.write_latency.Mean(), r.read_latency.Mean());
}

TEST_F(FioTest, SequentialModeCoversSpanInOrder) {
  FioJob job;
  job.sequential = true;
  job.num_threads = 1;
  job.queue_depth = 1;
  job.span = 1ULL << 20;
  FioResult r = RunJob(job, Millis(5), Millis(40));
  EXPECT_GT(r.iops, 1000.0);
  EXPECT_EQ(r.errors, 0);
}

}  // namespace
}  // namespace reflex::apps::fio
