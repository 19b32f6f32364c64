#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "baseline/kernel_server.h"
#include "baseline/local_nvme_driver.h"
#include "baseline/local_spdk.h"
#include "client/load_generator.h"
#include "client/reflex_client.h"
#include "sim/histogram.h"
#include "testing/harness.h"

namespace reflex::baseline {
namespace {

using client::IoResult;
using client::IoSession;
using sim::Micros;
using sim::Millis;
using sim::TimeNs;
using testing::Harness;

/** QD-1 probe over any IoSession; returns (avg, p95) read us. */
sim::Histogram ProbeReads(Harness& h, IoSession& session, int samples) {
  sim::Histogram hist;
  sim::Rng rng(7, "probe");
  for (int i = 0; i < samples; ++i) {
    const uint64_t lba = rng.NextBounded(1000000) * 8;
    auto f = session.Read(lba, 8);
    EXPECT_TRUE(h.RunUntilReady([&] { return f.Ready(); }));
    hist.Record(f.Get().Latency());
  }
  return hist;
}

sim::Histogram ProbeWrites(Harness& h, IoSession& session, int samples) {
  sim::Histogram hist;
  sim::Rng rng(8, "probe_w");
  for (int i = 0; i < samples; ++i) {
    const uint64_t lba = rng.NextBounded(1000000) * 8;
    auto f = session.Write(lba, 8);
    EXPECT_TRUE(h.RunUntilReady([&] { return f.Ready(); }));
    hist.Record(f.Get().Latency());
  }
  return hist;
}

TEST(BaselineTest, LocalSpdkUnloadedLatencyMatchesTable2) {
  Harness h;
  LocalSpdkService local(h.sim, h.device, LocalSpdkService::Options{});
  auto reads = ProbeReads(h, local, 300);
  // Table 2 Local (SPDK): 78us avg / 90us p95 reads.
  EXPECT_NEAR(reads.Mean() / 1e3, 78.0, 10.0);
  EXPECT_NEAR(reads.Percentile(0.95) / 1e3, 90.0, 14.0);
  auto writes = ProbeWrites(h, local, 300);
  // Table 2 Local: 11us avg / 17us p95 writes.
  EXPECT_NEAR(writes.Mean() / 1e3, 11.0, 4.0);
  EXPECT_LT(writes.Percentile(0.95) / 1e3, 24.0);
}

TEST(BaselineTest, IscsiUnloadedLatencyMatchesTable2) {
  Harness h;
  KernelStorageServer iscsi(h.sim, h.net, h.client_machine,
                            h.server_machine, h.device,
                            BaselineCosts::Iscsi(), 4);
  auto reads = ProbeReads(h, iscsi, 300);
  // Table 2 iSCSI: 211us avg / 251us p95 reads (2.8x local).
  EXPECT_GT(reads.Mean() / 1e3, 170.0);
  EXPECT_LT(reads.Mean() / 1e3, 245.0);
  auto writes = ProbeWrites(h, iscsi, 300);
  // Table 2 iSCSI: 155us avg writes.
  EXPECT_GT(writes.Mean() / 1e3, 110.0);
  EXPECT_LT(writes.Mean() / 1e3, 185.0);
}

TEST(BaselineTest, LibaioUnloadedLatencyMatchesTable2) {
  Harness h;
  KernelStorageServer libaio(
      h.sim, h.net, h.client_machine, h.server_machine, h.device,
      BaselineCosts::Libaio(net::StackCosts::IxDataplane()), 4);
  auto reads = ProbeReads(h, libaio, 300);
  // Table 2 Libaio + IX client: 121us avg / 139us p95 reads.
  EXPECT_NEAR(reads.Mean() / 1e3, 121.0, 18.0);
}

TEST(BaselineTest, Table2OrderingHolds) {
  // local < ReFlex(IX) < Libaio(IX) < iSCSI for unloaded reads.
  Harness h;
  LocalSpdkService local(h.sim, h.device, LocalSpdkService::Options{});
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient::Options copts;
  copts.stack = net::StackCosts::IxDataplane();
  client::ReflexClient rclient(h.sim, h.server, h.client_machine, copts);
  auto session = rclient.AttachSession(tenant->handle());
  KernelStorageServer libaio(
      h.sim, h.net, h.client_machine, h.server_machine, h.device,
      BaselineCosts::Libaio(net::StackCosts::IxDataplane()), 2);
  KernelStorageServer iscsi(h.sim, h.net, h.client_machine,
                            h.server_machine, h.device,
                            BaselineCosts::Iscsi(), 2);

  const double local_us = ProbeReads(h, local, 200).Mean() / 1e3;
  const double reflex_us = ProbeReads(h, *session, 200).Mean() / 1e3;
  const double libaio_us = ProbeReads(h, libaio, 200).Mean() / 1e3;
  const double iscsi_us = ProbeReads(h, iscsi, 200).Mean() / 1e3;

  EXPECT_LT(local_us, reflex_us);
  EXPECT_LT(reflex_us, libaio_us);
  EXPECT_LT(libaio_us, iscsi_us);
  // ReFlex adds ~21us over local (Table 2).
  EXPECT_NEAR(reflex_us - local_us, 21.0, 8.0);
}

sim::Task SaturateService(sim::Simulator& sim, IoSession& session,
                          TimeNs end, int64_t* completed, uint64_t salt) {
  sim::Rng rng(salt, "saturate");
  while (sim.Now() < end) {
    const uint64_t lba = rng.NextBounded(1000000) * 8;
    co_await session.Read(lba, 2);  // 1KB
    ++*completed;
  }
}

TEST(BaselineTest, LibaioServerIopsPerCoreNear75K) {
  Harness h;
  KernelStorageServer libaio(
      h.sim, h.net, h.client_machine, h.server_machine, h.device,
      BaselineCosts::Libaio(net::StackCosts::IxDataplane(), 1), 64);
  int64_t completed = 0;
  const TimeNs end = Millis(300);
  for (int q = 0; q < 256; ++q) {
    SaturateService(h.sim, libaio, end, &completed, q);
  }
  h.sim.RunUntil(end + Millis(100));
  const double iops = static_cast<double>(completed) / sim::ToSeconds(end);
  // Section 5.1/5.3: ~75K IOPS per core for the libaio baseline.
  EXPECT_GT(iops, 55000.0);
  EXPECT_LT(iops, 95000.0);
}

TEST(BaselineTest, LocalSpdkSingleCoreNear870K) {
  Harness h;
  LocalSpdkService::Options o;
  o.num_threads = 1;
  LocalSpdkService local(h.sim, h.device, o);
  int64_t completed = 0;
  const TimeNs end = Millis(200);
  for (int q = 0; q < 512; ++q) {
    SaturateService(h.sim, local, end, &completed, q);
  }
  h.sim.RunUntil(end + Millis(100));
  const double iops = static_cast<double>(completed) / sim::ToSeconds(end);
  // Section 5.3: a single core supports up to 870K IOPS on local Flash.
  EXPECT_GT(iops, 700000.0);
  EXPECT_LT(iops, 1000000.0);
}

TEST(BaselineTest, LocalSpdkTwoCoresSaturateDevice) {
  Harness h;
  LocalSpdkService::Options o;
  o.num_threads = 2;
  LocalSpdkService local(h.sim, h.device, o);
  int64_t completed = 0;
  const TimeNs end = Millis(200);
  for (int q = 0; q < 1024; ++q) {
    SaturateService(h.sim, local, end, &completed, q);
  }
  h.sim.RunUntil(end + Millis(100));
  const double iops = static_cast<double>(completed) / sim::ToSeconds(end);
  // Device A sustains ~1.1M read-only IOPS; two cores saturate it.
  EXPECT_GT(iops, 1000000.0);
}

TEST(BaselineTest, LocalNvmeDriverSlowerThanSpdkButScales) {
  Harness h;
  LocalSpdkService spdk(h.sim, h.device, LocalSpdkService::Options{});
  LocalNvmeDriver kernel(h.sim, h.device, LocalNvmeDriver::Options{});
  const double spdk_us = ProbeReads(h, spdk, 200).Mean() / 1e3;
  const double kernel_us = ProbeReads(h, kernel, 200).Mean() / 1e3;
  EXPECT_GT(kernel_us, spdk_us + 5.0);
  EXPECT_LT(kernel_us, spdk_us + 40.0);
}

// --- The IoSession contract, driven only through client::IoSession& ---

/** A baseline constructed with two lanes on a fresh harness. */
struct BaselineCase {
  const char* name;
  std::unique_ptr<IoSession> (*make)(Harness& h);
};

void PrintTo(const BaselineCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<IoSession> MakeSpdk(Harness& h) {
  LocalSpdkService::Options o;
  o.num_threads = 2;
  return std::make_unique<LocalSpdkService>(h.sim, h.device, o);
}

std::unique_ptr<IoSession> MakeNvme(Harness& h) {
  LocalNvmeDriver::Options o;
  o.num_contexts = 2;
  return std::make_unique<LocalNvmeDriver>(h.sim, h.device, o);
}

std::unique_ptr<IoSession> MakeLibaio(Harness& h) {
  // Two server threads, so each connection (lane) has its own core.
  return std::make_unique<KernelStorageServer>(
      h.sim, h.net, h.client_machine, h.server_machine, h.device,
      BaselineCosts::Libaio(net::StackCosts::IxDataplane(), 2), 2);
}

class BaselineSessionTest : public ::testing::TestWithParam<BaselineCase> {
 protected:
  /**
   * Issues 16 concurrent 4KB reads on a fresh baseline, read i on lane
   * lane_of(i, num_lanes), and returns their completion times.
   */
  static std::vector<TimeNs> BurstCompletions(int (*lane_of)(int, int)) {
    Harness h;
    std::unique_ptr<IoSession> session = GetParam().make(h);
    std::vector<sim::Future<IoResult>> futures;
    for (int i = 0; i < 16; ++i) {
      futures.push_back(session->Read(static_cast<uint64_t>(i) * 8, 8,
                                      nullptr,
                                      lane_of(i, session->num_lanes())));
    }
    EXPECT_TRUE(h.RunUntilReady([&] {
      return std::all_of(futures.begin(), futures.end(),
                         [](const auto& f) { return f.Ready(); });
    }));
    std::vector<TimeNs> done;
    for (auto& f : futures) {
      EXPECT_TRUE(f.Get().ok());
      done.push_back(f.Get().complete_time);
    }
    return done;
  }
};

TEST_P(BaselineSessionTest, StampedWriteReadsBack) {
  Harness h;
  std::unique_ptr<IoSession> owner = GetParam().make(h);
  IoSession& session = *owner;
  std::vector<uint8_t> written(4096);
  for (size_t i = 0; i < written.size(); ++i) {
    written[i] = static_cast<uint8_t>(i * 7 + 13);
  }
  auto w = session.Write(4096, 8, written.data());
  ASSERT_TRUE(h.RunUntilReady([&] { return w.Ready(); }));
  ASSERT_TRUE(w.Get().ok());
  std::vector<uint8_t> read(4096, 0);
  auto r = session.Read(4096, 8, read.data());
  ASSERT_TRUE(h.RunUntilReady([&] { return r.Ready(); }));
  ASSERT_TRUE(r.Get().ok());
  EXPECT_GT(r.Get().complete_time, r.Get().issue_time);
  EXPECT_EQ(read, written);
}

TEST_P(BaselineSessionTest, GeometryComesFromDeviceProfile) {
  Harness h;
  std::unique_ptr<IoSession> owner = GetParam().make(h);
  const IoSession& session = *owner;
  const flash::DeviceProfile& profile = h.device.profile();
  EXPECT_EQ(session.capacity_sectors(), profile.capacity_sectors);
  EXPECT_EQ(session.sector_bytes(), profile.sector_bytes);
  EXPECT_EQ(session.sectors_per_page(), profile.SectorsPerPage());
  EXPECT_EQ(session.tenant_handle(), 0u);
  EXPECT_EQ(session.num_lanes(), 2);
}

TEST_P(BaselineSessionTest, ExplicitLaneIsHonoured) {
  // Lane i % n picks exactly the lane the round-robin (-1) would.
  const auto spread = BurstCompletions([](int i, int n) { return i % n; });
  EXPECT_EQ(spread,
            BurstCompletions([](int /*i*/, int /*n*/) { return -1; }));
  // Pinning the whole burst to one lane serializes it on that lane's
  // thread, context or connection, so the burst finishes later.
  const auto pinned = BurstCompletions([](int /*i*/, int n) { return n - 1; });
  EXPECT_GT(*std::max_element(pinned.begin(), pinned.end()),
            *std::max_element(spread.begin(), spread.end()));
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, BaselineSessionTest,
    ::testing::Values(BaselineCase{"LocalSpdk", &MakeSpdk},
                      BaselineCase{"LocalNvme", &MakeNvme},
                      BaselineCase{"Libaio", &MakeLibaio}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace reflex::baseline
