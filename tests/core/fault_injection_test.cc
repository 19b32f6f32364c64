#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

#include "client/reflex_client.h"
#include "sim/fault.h"
#include "testing/harness.h"

namespace reflex {
namespace {

using core::ReqStatus;
using sim::FaultKind;
using sim::FaultPlan;
using sim::Micros;
using sim::Millis;
using testing::Harness;
using testing::RetryingClientOptions;

TEST(FaultInjectionTest, IdlePlanLeavesTimingBitIdentical) {
  sim::TimeNs baseline = 0;
  for (int run = 0; run < 2; ++run) {
    Harness h;
    FaultPlan plan(h.sim, 1234);
    if (run == 1) {
      // Attached everywhere, but with no probabilities or windows.
      h.device.SetFaultPlan(&plan);
      h.net.SetFaultPlan(&plan);
      h.server.SetFaultPlan(&plan);
    }
    core::Tenant* tenant = h.LcTenant();
    client::ReflexClient client(h.sim, h.server, h.client_machine, {});
    auto session = client.AttachSession(tenant->handle());
    auto io = session->Read(0, 8);
    ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
    ASSERT_TRUE(io.Get().ok());
    if (run == 0) {
      baseline = io.Get().complete_time;
    } else {
      EXPECT_EQ(io.Get().complete_time, baseline)
          << "attached-but-idle plan must not perturb the simulation";
    }
  }
}

TEST(FaultInjectionTest, FlashReadErrorSurfacesAsDeviceError) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.device.SetFaultPlan(&plan);
  plan.ScheduleWindow(FaultKind::kFlashReadError, Micros(1), Millis(10));
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine, {});
  auto session = client.AttachSession(tenant->handle());

  auto io = session->Read(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  EXPECT_EQ(io.Get().status, ReqStatus::kDeviceError);
  EXPECT_GE(h.device.stats().read_errors, 1);
  EXPECT_EQ(h.device.stats().reads_completed, 0)
      << "failed reads must not count as completions";
}

TEST(FaultInjectionTest, FlashWriteErrorSurfacesAsDeviceError) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.device.SetFaultPlan(&plan);
  plan.ScheduleWindow(FaultKind::kFlashWriteError, Micros(1), Millis(10));
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine, {});
  auto session = client.AttachSession(tenant->handle());

  auto io = session->Write(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  EXPECT_EQ(io.Get().status, ReqStatus::kDeviceError);
  EXPECT_GE(h.device.stats().write_errors, 1);
}

TEST(FaultInjectionTest, BrownoutSlowsReadsWhileActive) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  plan.set_brownout_slowdown(16.0);
  h.device.SetFaultPlan(&plan);
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine, {});
  auto session = client.AttachSession(tenant->handle());

  auto before = session->Read(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return before.Ready(); }));
  ASSERT_TRUE(before.Get().ok());

  plan.ScheduleWindow(FaultKind::kFlashBrownout, Millis(5), Millis(20));
  h.RunUntilReady([&] { return h.sim.Now() >= Millis(6); });
  auto during = session->Read(800, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return during.Ready(); }));
  ASSERT_TRUE(during.Get().ok());
  EXPECT_GT(during.Get().Latency(), before.Get().Latency())
      << "browned-out device serves reads slower";

  h.RunUntilReady([&] { return h.sim.Now() >= Millis(30); });
  auto after = session->Read(1600, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return after.Ready(); }));
  ASSERT_TRUE(after.Get().ok());
  EXPECT_LT(after.Get().Latency(), during.Get().Latency())
      << "latency recovers once the brownout clears";
}

TEST(FaultInjectionTest, BrownoutShedsBestEffortTokenShare) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.server.SetFaultPlan(&plan);
  core::Tenant* be = h.BeTenant();
  h.LcTenant();
  const double nominal = be->token_rate();
  ASSERT_GT(nominal, 0.0);

  plan.ScheduleWindow(FaultKind::kFlashBrownout, Millis(1), Millis(10));
  h.RunUntilReady([&] { return h.sim.Now() >= Millis(2); });
  EXPECT_TRUE(h.server.control_plane().be_shed_active());
  EXPECT_NEAR(be->token_rate(),
              nominal * core::ControlPlane::kBeShedFactor,
              nominal * 0.01)
      << "BE share shed during the brownout";

  h.RunUntilReady([&] { return h.sim.Now() >= Millis(15); });
  EXPECT_FALSE(h.server.control_plane().be_shed_active());
  EXPECT_NEAR(be->token_rate(), nominal, nominal * 0.01)
      << "BE share restored after the brownout";
}

TEST(FaultInjectionTest, ServerForcedErrorsAreCountedPerTenant) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.server.SetFaultPlan(&plan);
  plan.ScheduleWindow(FaultKind::kServerDeviceError, Micros(1), Millis(50));
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine, {});
  auto session = client.AttachSession(tenant->handle());

  for (int i = 0; i < 4; ++i) {
    auto io = session->Read(i * 800, 8);
    ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
    EXPECT_EQ(io.Get().status, ReqStatus::kDeviceError);
  }
  EXPECT_EQ(tenant->errors, 4);
  EXPECT_EQ(h.server.AggregateStats().error_responses, 4);
  EXPECT_EQ(h.device.stats().reads_completed, 0)
      << "forced server errors never reach the device";

  // The snapshot publishes both the per-tenant counter and the
  // injected-fault totals.
  obs::MetricsRegistry& registry = h.server.SnapshotMetrics();
  EXPECT_EQ(registry
                .GetGauge("tenant_errors",
                          obs::Label("tenant",
                                     static_cast<int64_t>(tenant->handle())))
                ->value(),
            4.0);
  EXPECT_GE(registry
                .GetGauge("faults_injected",
                          obs::Label("kind", "server_device_error"))
                ->value(),
            4.0);
}

TEST(FaultInjectionTest, ClientRetriesReadThroughServerErrorWindow) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.server.SetFaultPlan(&plan);
  // Errors forced only for the first 500us; the client's retry lands
  // after the window closes and succeeds.
  plan.ScheduleWindow(FaultKind::kServerDeviceError, Micros(1),
                      Micros(500));
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              RetryingClientOptions());
  auto session = client.AttachSession(tenant->handle());

  auto io = session->Read(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  EXPECT_TRUE(io.Get().ok()) << "read retried to success";
  EXPECT_GE(client.fault_stats().retries, 1);
  EXPECT_EQ(client.fault_stats().failures, 0);
}

TEST(FaultInjectionTest, WriteTimeoutSurfacesUnknownOutcome) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.net.SetFaultPlan(&plan);
  // Link down for a long time: the write can never be delivered.
  plan.ScheduleWindow(FaultKind::kNetLinkFlap, Micros(1), sim::Seconds(1));
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              RetryingClientOptions());
  auto session = client.AttachSession(tenant->handle());

  auto io = session->Write(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  EXPECT_EQ(io.Get().status, ReqStatus::kUnknownOutcome)
      << "writes are not idempotent and must not be retransmitted; the "
         "library cannot know whether the write executed";
  EXPECT_EQ(client.fault_stats().timeouts, 1);
  EXPECT_EQ(client.fault_stats().retries, 0);
  EXPECT_EQ(client.fault_stats().failures, 1);
  EXPECT_GE(h.net.dropped_messages(), 1);
}

TEST(FaultInjectionTest, ConnectionResetTriggersReconnectAndRecovery) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.net.SetFaultPlan(&plan);
  // Reset any connection whose client machine sends in the first
  // 100us. The connection stays closed until the client library
  // notices (consecutive timeouts) and reconnects.
  plan.ScheduleWindow(FaultKind::kNetReset, Micros(1), Micros(100),
                      static_cast<uint64_t>(h.client_machine->id()));
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              RetryingClientOptions());
  auto session = client.AttachSession(tenant->handle());

  // Step into the window so the first transmission hits the reset.
  h.sim.RunUntil(Micros(2));
  auto io = session->Read(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  EXPECT_TRUE(io.Get().ok()) << "read recovered after reconnect";
  EXPECT_EQ(h.net.connection_resets(), 1);
  EXPECT_EQ(client.fault_stats().reconnects, 1);
  EXPECT_GE(client.fault_stats().timeouts, 2);
}

TEST(FaultInjectionTest, ReadSurvivesPacketLoss) {
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.net.SetFaultPlan(&plan);
  // 30% of messages from either endpoint vanish; idempotent retries
  // still finish every read.
  plan.SetProbability(FaultKind::kNetDrop, 0.3);
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine,
                              RetryingClientOptions());
  auto session = client.AttachSession(tenant->handle());

  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    auto io = session->Read(i * 800, 8);
    ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
    if (io.Get().ok()) ++ok;
  }
  EXPECT_EQ(ok, 20) << "every read eventually succeeded";
  EXPECT_GE(client.fault_stats().retries, 1);
  EXPECT_GE(h.net.dropped_messages(), 1);
}

TEST(FaultInjectionTest, DroppedReadTimesOutAfterCappedBackoff) {
  // Every transmission is dropped, so the read resolves only when its
  // retries run out: six 2 ms timeouts plus five backoffs that double
  // from backoff_base (1, 2, 4 ms) and then stay at the 5 ms cap.
  Harness h;
  FaultPlan plan(h.sim, 5);
  h.net.SetFaultPlan(&plan);
  plan.SetProbability(FaultKind::kNetDrop, 1.0);
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient::Options copts;
  copts.stack = net::StackCosts::Null();  // no transmit cost per attempt
  copts.retry.request_timeout = Millis(2);
  copts.retry.max_retries = 5;
  copts.retry.backoff_base = Millis(1);
  client::ReflexClient client(h.sim, h.server, h.client_machine, copts);
  auto session = client.AttachSession(tenant->handle());

  auto io = session->Read(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  EXPECT_EQ(io.Get().status, ReqStatus::kTimedOut);
  EXPECT_EQ(io.Get().Latency(), 6 * Millis(2) + Millis(1 + 2 + 4 + 5 + 5));
  EXPECT_EQ(client.fault_stats().timeouts, 6);
  EXPECT_EQ(client.fault_stats().retries, 5);
}

// A read the server holds past the client's timeout. A read slowed by
// a 5 ms latency spike goes first, then a barrier, so the probe read
// reaches the device only when the spiked read completes -- long after
// the client failed the probe with kTimedOut (1 ms, no retries).
class LateReadTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kProbeLba = 800;
  static constexpr uint32_t kSectors = 8;
  static constexpr size_t kBytes = kSectors * core::kSectorBytes;

  LateReadTest() : plan_(h_.sim, 5) {
    client::ReflexClient::Options copts = RetryingClientOptions();
    copts.retry.max_retries = 0;
    copts.retry.reconnect_after_timeouts = 100;
    client_ = std::make_unique<client::ReflexClient>(
        h_.sim, h_.server, h_.client_machine, copts);
    session_ = client_->AttachSession(h_.LcTenant()->handle());
  }

  /** Seeds the probe range with 0xAB so a device read is visible. */
  void SeedProbeRange() {
    std::vector<uint8_t> seed(kBytes, 0xAB);
    auto w = session_->Write(kProbeLba, kSectors, seed.data());
    ASSERT_TRUE(h_.RunUntilReady([&] { return w.Ready(); }));
    ASSERT_TRUE(w.Get().ok());
  }

  /** Issues the held probe read into `buf`; returns its future. */
  sim::Future<client::IoResult> ReadHeldPastTimeout(uint8_t* buf) {
    h_.device.SetFaultPlan(&plan_);
    plan_.set_latency_spike(Millis(5));
    plan_.ScheduleWindow(FaultKind::kFlashLatencySpike,
                         h_.sim.Now() + Micros(1), Micros(100));
    h_.sim.RunUntil(h_.sim.Now() + Micros(2));
    spiked_ = session_->Read(0, kSectors);
    barrier_ = session_->Barrier();
    return session_->Read(kProbeLba, kSectors, buf);
  }

  Harness h_;
  FaultPlan plan_;
  std::unique_ptr<client::ReflexClient> client_;
  std::unique_ptr<client::TenantSession> session_;
  sim::Future<client::IoResult> spiked_;
  sim::Future<client::IoResult> barrier_;
};

TEST_F(LateReadTest, TimedOutReadNeverWritesCallerBufferLate) {
  SeedProbeRange();
  std::vector<uint8_t> buf(kBytes, 0);
  auto probe = ReadHeldPastTimeout(buf.data());
  ASSERT_TRUE(h_.RunUntilReady([&] { return probe.Ready(); }));
  ASSERT_EQ(probe.Get().status, ReqStatus::kTimedOut);
  ASSERT_EQ(h_.device.stats().reads_completed, 0)
      << "the probe must resolve before it even reaches the device";

  // The op resolved, so the buffer is the caller's again: reuse it,
  // then run well past the held read's device completion.
  std::memset(buf.data(), 0x5E, kBytes);
  h_.sim.RunUntil(Millis(20));
  EXPECT_GE(h_.device.stats().reads_completed, 2)
      << "the held read did reach the device";
  EXPECT_GE(client_->fault_stats().stale_responses, 1)
      << "its response arrived after the op resolved";
  EXPECT_EQ(std::count(buf.begin(), buf.end(), 0x5E),
            static_cast<std::ptrdiff_t>(kBytes))
      << "a late completion overwrote the caller's reused buffer";
}

TEST_F(LateReadTest, TimedOutReadBufferMayBeFreed) {
  SeedProbeRange();
  auto buf = std::make_unique<uint8_t[]>(kBytes);
  auto probe = ReadHeldPastTimeout(buf.get());
  ASSERT_TRUE(h_.RunUntilReady([&] { return probe.Ready(); }));
  ASSERT_EQ(probe.Get().status, ReqStatus::kTimedOut);
  ASSERT_EQ(h_.device.stats().reads_completed, 0);
  // Freed while the read is still held server-side; a late copy into
  // it is a heap-use-after-free under ASan.
  buf.reset();
  h_.sim.RunUntil(Millis(20));
  EXPECT_GE(h_.device.stats().reads_completed, 2);
  EXPECT_GE(client_->fault_stats().stale_responses, 1);
}

}  // namespace
}  // namespace reflex
