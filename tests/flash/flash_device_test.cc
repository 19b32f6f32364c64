#include "flash/flash_device.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "flash/device_profile.h"
#include "sim/simulator.h"

namespace reflex::flash {
namespace {

using sim::Micros;
using sim::Millis;
using sim::Simulator;
using sim::TimeNs;

DeviceProfile QuietProfile() {
  DeviceProfile p = DeviceProfile::DeviceA();
  p.service_sigma = 0.0;
  p.write_buffer_sigma = 0.0;
  p.gc_prob_per_flush_chunk = 0.0;
  return p;
}

class FlashDeviceTest : public ::testing::Test {
 protected:
  Simulator sim_;
};

TEST_F(FlashDeviceTest, QueuePairAllocationLimit) {
  DeviceProfile p = QuietProfile();
  p.num_hw_queues = 3;
  FlashDevice dev(sim_, p, 1);
  QueuePair* a = dev.AllocQueuePair();
  QueuePair* b = dev.AllocQueuePair();
  QueuePair* c = dev.AllocQueuePair();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(dev.AllocQueuePair(), nullptr) << "limit is 3 queues";
  dev.FreeQueuePair(b);
  QueuePair* d = dev.AllocQueuePair();
  EXPECT_NE(d, nullptr) << "freed slot must be reusable";
}

TEST_F(FlashDeviceTest, UnloadedReadLatencyIsReadOnlyServicePlusOverhead) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();
  FlashCommand cmd;
  cmd.op = FlashOp::kRead;
  cmd.lba = 0;
  cmd.sectors = 8;  // 4KB
  TimeNs latency = -1;
  ASSERT_TRUE(dev.Submit(qp, cmd, [&](const FlashCompletion& c) {
    latency = c.Latency();
  }));
  sim_.Run();
  // Device idle => read-only mode: one die service quantum plus the
  // pipelined controller latency and fixed overhead.
  EXPECT_EQ(latency, p.read_service_readonly + p.read_pipeline_latency +
                         p.fixed_op_overhead);
}

TEST_F(FlashDeviceTest, UnloadedWriteLatencyIsBufferInsert) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();
  FlashCommand cmd;
  cmd.op = FlashOp::kWrite;
  cmd.sectors = 8;
  TimeNs latency = -1;
  ASSERT_TRUE(dev.Submit(qp, cmd, [&](const FlashCompletion& c) {
    latency = c.Latency();
  }));
  sim_.Run();
  // Writes ack from the DRAM buffer: ~10us, far below read latency.
  EXPECT_LT(latency, Micros(20));
  EXPECT_GE(latency, p.write_buffer_latency);
}

TEST_F(FlashDeviceTest, MixedModeReadsAreSlower) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();

  // A write puts the device in mixed mode.
  FlashCommand w;
  w.op = FlashOp::kWrite;
  w.sectors = 8;
  ASSERT_TRUE(dev.Submit(qp, w, nullptr));
  sim_.Run();

  // Flush of one write occupies dies; wait for it to drain but stay
  // within the read-only window.
  EXPECT_FALSE(dev.InReadOnlyMode());

  FlashCommand r;
  r.op = FlashOp::kRead;
  r.lba = 8 * 1000;  // a different page/die than the flush target
  r.sectors = 8;
  TimeNs latency = -1;
  ASSERT_TRUE(dev.Submit(qp, r, [&](const FlashCompletion& c) {
    latency = c.Latency();
  }));
  sim_.Run();
  EXPECT_GE(latency, p.read_service_mixed);
}

TEST_F(FlashDeviceTest, ReadOnlyModeRestoredAfterQuietWindow) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();
  FlashCommand w;
  w.op = FlashOp::kWrite;
  w.sectors = 8;
  ASSERT_TRUE(dev.Submit(qp, w, nullptr));
  sim_.Run();
  EXPECT_FALSE(dev.InReadOnlyMode());
  sim_.RunUntil(sim_.Now() + p.readonly_window + Millis(2));
  EXPECT_TRUE(dev.InReadOnlyMode());
}

TEST_F(FlashDeviceTest, LargeReadsCostProportionallyMoreDieTime) {
  // A 32KB read touches 8 dies; on an idle device the chunks run in
  // parallel so latency stays near one quantum, but total die
  // occupancy is 8 quanta. We verify via saturation of a small device.
  DeviceProfile p = QuietProfile();
  p.num_dies = 4;
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();
  TimeNs latency = -1;
  FlashCommand r;
  r.op = FlashOp::kRead;
  r.lba = 0;
  r.sectors = 64;  // 32KB = 8 pages on 4 dies => 2 serial quanta
  ASSERT_TRUE(dev.Submit(qp, r, [&](const FlashCompletion& c) {
    latency = c.Latency();
  }));
  sim_.Run();
  EXPECT_EQ(latency, 2 * p.read_service_readonly +
                         p.read_pipeline_latency + p.fixed_op_overhead);
}

TEST_F(FlashDeviceTest, InvalidLbaRejected) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();
  FlashCommand bad;
  bad.op = FlashOp::kRead;
  bad.lba = p.capacity_sectors;  // out of range
  bad.sectors = 8;
  EXPECT_FALSE(dev.Submit(qp, bad, nullptr));
  FlashCommand zero;
  zero.sectors = 0;
  EXPECT_FALSE(dev.Submit(qp, zero, nullptr));
  // lba + sectors wraps to 4: still out of range.
  FlashCommand wrapping;
  wrapping.op = FlashOp::kWrite;
  wrapping.lba = ~uint64_t{0} - 3;
  wrapping.sectors = 8;
  EXPECT_FALSE(dev.Submit(qp, wrapping, nullptr));
  EXPECT_EQ(qp->Outstanding(), 0);
}

TEST_F(FlashDeviceTest, QueueDepthEnforced) {
  DeviceProfile p = QuietProfile();
  p.hw_queue_depth = 4;
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();
  FlashCommand r;
  r.op = FlashOp::kRead;
  r.sectors = 8;
  for (int i = 0; i < 4; ++i) {
    r.lba = static_cast<uint64_t>(i) * 8;
    EXPECT_TRUE(dev.Submit(qp, r, nullptr));
  }
  EXPECT_FALSE(dev.Submit(qp, r, nullptr)) << "queue depth 4 exceeded";
  EXPECT_EQ(dev.stats().queue_full_rejections, 1);
  sim_.Run();
  EXPECT_EQ(qp->Outstanding(), 0);
  EXPECT_TRUE(dev.Submit(qp, r, nullptr)) << "queue drains";
  sim_.Run();
}

TEST_F(FlashDeviceTest, DataRoundTrip) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();

  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < out.size(); ++i) out[i] = static_cast<uint8_t>(i);
  FlashCommand w;
  w.op = FlashOp::kWrite;
  w.lba = 800;
  w.sectors = 8;
  w.data = out.data();
  ASSERT_TRUE(dev.Submit(qp, w, nullptr));
  sim_.Run();

  std::vector<uint8_t> in(4096, 0xEE);
  FlashCommand r;
  r.op = FlashOp::kRead;
  r.lba = 800;
  r.sectors = 8;
  r.pin = true;
  ASSERT_TRUE(dev.Submit(qp, r, [&in](const FlashCompletion& c) {
    ASSERT_TRUE(c.pins);
    EXPECT_EQ(c.pins.bytes(), 4096u);
    c.pins.CopyTo(in.data());
  }));
  sim_.Run();
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 4096), 0);
}

TEST_F(FlashDeviceTest, UnalignedDataRoundTrip) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();

  // Write 3 sectors starting at an offset inside a page.
  std::vector<uint8_t> out(3 * 512, 0xAB);
  FlashCommand w;
  w.op = FlashOp::kWrite;
  w.lba = 6;  // straddles the first/second 4KB page
  w.sectors = 3;
  w.data = out.data();
  ASSERT_TRUE(dev.Submit(qp, w, nullptr));
  sim_.Run();

  std::vector<uint8_t> in(3 * 512, 0);
  FlashCommand r = w;
  r.op = FlashOp::kRead;
  r.data = nullptr;
  r.pin = true;
  ASSERT_TRUE(dev.Submit(qp, r, [&in](const FlashCompletion& c) {
    c.pins.CopyTo(in.data());
  }));
  sim_.Run();
  EXPECT_EQ(in, out);
}

TEST_F(FlashDeviceTest, UnwrittenFlashReadsZero) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();
  std::vector<uint8_t> in(4096, 0xFF);
  FlashCommand r;
  r.op = FlashOp::kRead;
  r.lba = 123456;
  r.sectors = 8;
  r.pin = true;
  ASSERT_TRUE(dev.Submit(qp, r, [&in](const FlashCompletion& c) {
    c.pins.CopyTo(in.data());
  }));
  sim_.Run();
  for (uint8_t b : in) EXPECT_EQ(b, 0);
}

TEST_F(FlashDeviceTest, WriteToPinnedPageLeavesTheReadsBytes) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();
  std::vector<uint8_t> old_bytes(8192, 0x11);
  FlashCommand w;
  w.op = FlashOp::kWrite;
  w.lba = 64;  // pages 8 and 9
  w.sectors = 16;
  w.data = old_bytes.data();
  ASSERT_TRUE(dev.Submit(qp, w, nullptr));
  sim_.Run();

  // A read spanning both pages and an unwritten third pins them at
  // submit; a write lands on part of page 9 before the read completes.
  std::vector<uint8_t> first(3 * 4096, 0xEE);
  FlashCommand r;
  r.op = FlashOp::kRead;
  r.lba = 68;  // half of page 8, page 9, half of page 10
  r.sectors = 16;
  r.pin = true;
  ASSERT_TRUE(dev.Submit(qp, r, [&first](const FlashCompletion& c) {
    c.pins.CopyTo(first.data());
  }));
  std::vector<uint8_t> new_bytes(1024, 0x22);
  FlashCommand w2;
  w2.op = FlashOp::kWrite;
  w2.lba = 74;  // 1 KB inside page 9
  w2.sectors = 2;
  w2.data = new_bytes.data();
  ASSERT_TRUE(dev.Submit(qp, w2, nullptr));
  sim_.Run();
  for (size_t i = 0; i < 8192; ++i) {
    const uint8_t want = i < 6144 ? 0x11 : 0;
    ASSERT_EQ(first[i], want) << "byte " << i << " of the pinned read";
  }

  // A read submitted after the write sees it, over the copied page.
  std::vector<uint8_t> second(8192, 0xEE);
  ASSERT_TRUE(dev.Submit(qp, r, [&second](const FlashCompletion& c) {
    c.pins.CopyTo(second.data());
  }));
  sim_.Run();
  for (size_t i = 0; i < 8192; ++i) {
    const bool rewritten = i >= 3072 && i < 4096;
    const uint8_t want = rewritten ? 0x22 : (i < 6144 ? 0x11 : 0);
    ASSERT_EQ(second[i], want) << "byte " << i << " after the write";
  }
}

TEST_F(FlashDeviceTest, WriteBufferBackpressure) {
  DeviceProfile p = QuietProfile();
  p.num_dies = 2;
  p.write_buffer_slots = 2;
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();

  // Flood with writes: each flush costs 10 quanta on 2 dies = 700us.
  std::vector<TimeNs> latencies;
  FlashCommand w;
  w.op = FlashOp::kWrite;
  w.sectors = 8;
  for (int i = 0; i < 8; ++i) {
    w.lba = static_cast<uint64_t>(i) * 8;
    ASSERT_TRUE(dev.Submit(qp, w, [&](const FlashCompletion& c) {
      latencies.push_back(c.Latency());
    }));
  }
  sim_.Run();
  ASSERT_EQ(latencies.size(), 8u);
  // First two writes hit free buffer slots: fast.
  EXPECT_LT(latencies[0], Micros(20));
  EXPECT_LT(latencies[1], Micros(20));
  // Later writes wait for flush drain: much slower.
  EXPECT_GT(latencies.back(), Micros(500));
}

TEST_F(FlashDeviceTest, StatsCountOps) {
  DeviceProfile p = QuietProfile();
  FlashDevice dev(sim_, p, 1);
  QueuePair* qp = dev.AllocQueuePair();
  FlashCommand r;
  r.op = FlashOp::kRead;
  r.sectors = 8;
  FlashCommand w;
  w.op = FlashOp::kWrite;
  w.sectors = 16;
  ASSERT_TRUE(dev.Submit(qp, r, nullptr));
  ASSERT_TRUE(dev.Submit(qp, w, nullptr));
  sim_.Run();
  EXPECT_EQ(dev.stats().reads_completed, 1);
  EXPECT_EQ(dev.stats().writes_completed, 1);
  EXPECT_EQ(dev.stats().read_sectors, 8);
  EXPECT_EQ(dev.stats().write_sectors, 16);
  EXPECT_EQ(dev.read_latency().Count(), 1);
  EXPECT_EQ(dev.write_latency().Count(), 1);
}

TEST_F(FlashDeviceTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    Simulator sim;
    FlashDevice dev(sim, DeviceProfile::DeviceA(), 99);
    QueuePair* qp = dev.AllocQueuePair();
    std::vector<TimeNs> latencies;
    for (int i = 0; i < 200; ++i) {
      FlashCommand cmd;
      cmd.op = (i % 10 == 0) ? FlashOp::kWrite : FlashOp::kRead;
      cmd.lba = static_cast<uint64_t>(i * 37 % 100000) * 8;
      cmd.sectors = 8;
      dev.Submit(qp, cmd, [&](const FlashCompletion& c) {
        latencies.push_back(c.Latency());
      });
    }
    sim.Run();
    return latencies;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace reflex::flash
