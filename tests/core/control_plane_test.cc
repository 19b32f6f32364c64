#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "client/load_generator.h"
#include "client/reflex_client.h"
#include "testing/harness.h"

namespace reflex {
namespace {

using core::ReqStatus;
using core::SloSpec;
using core::TenantClass;
using sim::Micros;
using sim::Millis;
using testing::Harness;

TEST(ControlPlaneTest, StrictestSloSetsTokenRate) {
  Harness h;
  // No LC tenants: BE may use the full device capacity.
  h.BeTenant();
  EXPECT_NEAR(h.server.control_plane().scheduler_token_rate(), 547000.0,
              1000.0);
  // A 2ms LC tenant caps the rate at the 2ms point of the curve.
  h.LcTenant(20000, 0.9, Millis(2));
  const double rate_2ms = h.server.control_plane().scheduler_token_rate();
  EXPECT_LT(rate_2ms, 547000.0);
  EXPECT_GT(rate_2ms, 450000.0);
  // A stricter 500us tenant lowers it further.
  h.LcTenant(20000, 0.9, Micros(500));
  const double rate_500us =
      h.server.control_plane().scheduler_token_rate();
  EXPECT_LT(rate_500us, rate_2ms);
  EXPECT_NEAR(rate_500us, 423000.0, 25000.0);
  EXPECT_EQ(h.server.control_plane().strictest_slo(), Micros(500));
}

TEST(ControlPlaneTest, BeShareGrowsWhenLcLeaves) {
  Harness h;
  core::Tenant* be = h.BeTenant();
  core::Tenant* lc = h.LcTenant(100000, 0.8, Millis(2));
  const double be_share_with_lc = be->token_rate();
  ASSERT_TRUE(h.server.UnregisterTenant(lc->handle()));
  EXPECT_GT(be->token_rate(), be_share_with_lc);
  // Unregistering again is a no-op.
  EXPECT_FALSE(h.server.UnregisterTenant(lc->handle()));
}

TEST(ControlPlaneTest, BeShareIsFairAcrossBeTenants) {
  Harness h;
  core::Tenant* a = h.BeTenant();
  core::Tenant* b = h.BeTenant();
  core::Tenant* c = h.BeTenant();
  EXPECT_DOUBLE_EQ(a->token_rate(), b->token_rate());
  EXPECT_DOUBLE_EQ(b->token_rate(), c->token_rate());
  EXPECT_NEAR(a->token_rate() * 3,
              h.server.control_plane().scheduler_token_rate(), 1.0);
}

TEST(ControlPlaneTest, AdmissionBoundary) {
  Harness h;
  // Fill the 500us cap (~423K tokens/s) with LC reservations of
  // 100K tokens/s each (100K IOPS read-only).
  SloSpec slo;
  slo.iops = 100000;
  slo.read_fraction = 1.0;
  slo.latency = Micros(500);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(h.server.RegisterTenant(slo, TenantClass::kLatencyCritical),
              nullptr)
        << "tenant " << i << " fits under the cap";
  }
  ReqStatus status;
  EXPECT_EQ(h.server.RegisterTenant(slo, TenantClass::kLatencyCritical,
                                    &status),
            nullptr)
      << "the fifth 100K reservation exceeds ~423K tokens/s";
  EXPECT_EQ(status, ReqStatus::kOutOfResources);
  // A small tenant still fits in the remainder.
  slo.iops = 20000;
  EXPECT_NE(h.server.RegisterTenant(slo, TenantClass::kLatencyCritical),
            nullptr);
}

TEST(ControlPlaneTest, InvalidSloRejected) {
  Harness h;
  SloSpec bad;
  bad.iops = 0;  // meaningless reservation
  bad.latency = Micros(500);
  ReqStatus status;
  EXPECT_EQ(h.server.RegisterTenant(bad, TenantClass::kLatencyCritical,
                                    &status),
            nullptr);
  EXPECT_EQ(status, ReqStatus::kOutOfResources);
  bad.iops = 1000;
  bad.latency = 0;
  EXPECT_EQ(h.server.RegisterTenant(bad, TenantClass::kLatencyCritical,
                                    &status),
            nullptr);
  bad.latency = Micros(500);
  bad.read_fraction = 1.5;
  EXPECT_EQ(h.server.RegisterTenant(bad, TenantClass::kLatencyCritical,
                                    &status),
            nullptr);
}

TEST(ControlPlaneTest, TenantsSpreadAcrossThreads) {
  core::ServerOptions options;
  options.num_threads = 4;
  Harness h(options);
  for (int i = 0; i < 8; ++i) h.LcTenant(10000, 0.9, Millis(2));
  int counts[4] = {0, 0, 0, 0};
  for (core::Tenant* t : h.server.tenants()) {
    ASSERT_GE(t->thread_index(), 0);
    ASSERT_LT(t->thread_index(), 4);
    ++counts[t->thread_index()];
  }
  for (int c : counts) EXPECT_EQ(c, 2) << "balanced placement";
}

TEST(ControlPlaneTest, ScaleToAddsAndRemovesThreads) {
  core::ServerOptions options;
  options.num_threads = 1;
  options.max_threads = 6;
  Harness h(options);
  for (int i = 0; i < 6; ++i) h.BeTenant();
  EXPECT_EQ(h.server.num_active_threads(), 1);

  ASSERT_TRUE(h.server.control_plane().ScaleTo(4));
  EXPECT_EQ(h.server.num_active_threads(), 4);
  // Tenants were rebalanced across the 4 active threads.
  int max_thread = 0;
  for (core::Tenant* t : h.server.tenants()) {
    max_thread = std::max(max_thread, t->thread_index());
  }
  EXPECT_GT(max_thread, 0);

  ASSERT_TRUE(h.server.control_plane().ScaleTo(2));
  EXPECT_EQ(h.server.num_active_threads(), 2);
  for (core::Tenant* t : h.server.tenants()) {
    EXPECT_LT(t->thread_index(), 2) << "tenants evacuated from stopped "
                                       "threads";
  }
  EXPECT_FALSE(h.server.control_plane().ScaleTo(0));
  EXPECT_FALSE(h.server.control_plane().ScaleTo(7));
}

TEST(ControlPlaneTest, ServerStillServesAfterRescaling) {
  core::ServerOptions options;
  options.num_threads = 1;
  options.max_threads = 4;
  Harness h(options);
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient client(h.sim, h.server, h.client_machine, {});
  auto session = client.AttachSession(tenant->handle());

  auto io1 = session->Read(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io1.Ready(); }));
  EXPECT_TRUE(io1.Get().ok());

  ASSERT_TRUE(h.server.control_plane().ScaleTo(3));
  auto io2 = session->Read(800, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io2.Ready(); }));
  EXPECT_TRUE(io2.Get().ok());

  ASSERT_TRUE(h.server.control_plane().ScaleTo(1));
  auto io3 = session->Read(1600, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io3.Ready(); }));
  EXPECT_TRUE(io3.Get().ok());
}

// Every thread's O(1) queued-request count must equal the queue depths
// of the tenants it owns, whichever path moved the requests.
void ExpectQueueCountsMatch(core::ReflexServer& server, const char* when) {
  for (int i = 0; i < server.num_threads(); ++i) {
    int64_t queued = 0;
    for (const core::Tenant* t : server.tenants()) {
      if (t->active() && t->thread_index() == i) {
        queued += static_cast<int64_t>(t->queue_depth());
      }
    }
    const core::QosScheduler& sched = server.thread(i).scheduler();
    EXPECT_EQ(sched.QueuedRequests(), queued) << when << ", thread " << i;
    EXPECT_EQ(sched.HasPendingDemand(), queued > 0)
        << when << ", thread " << i;
  }
}

TEST(ControlPlaneTest, QueueCountsFollowEveryPathThatMovesRequests) {
  core::ServerOptions options;
  options.num_threads = 2;
  options.max_threads = 2;
  Harness h(options);
  // Tiny reservations: each tenant bursts 50 tokens, then drains about
  // one request per millisecond, so a burst of reads stays queued.
  core::Tenant* a = h.LcTenant(1000, 1.0, Millis(2));  // thread 0
  core::Tenant* b = h.LcTenant(1000, 1.0, Millis(2));  // thread 1
  core::Tenant* c = h.LcTenant(1000, 1.0, Millis(2));  // thread 0
  ASSERT_EQ(b->thread_index(), 1);

  ASSERT_TRUE(h.server.control_plane().ScaleTo(1));
  ExpectQueueCountsMatch(h.server, "after shrink");
  ASSERT_EQ(b->thread_index(), 0);

  // b's connection is opened while b lives on thread 0, so it keeps
  // polling there after b moves.
  client::ReflexClient client(h.sim, h.server, h.client_machine, {});
  auto session_a = client.AttachSession(a->handle());
  auto session_b = client.AttachSession(b->handle());
  auto session_c = client.AttachSession(c->handle());
  std::vector<sim::Future<client::IoResult>> ios;
  auto burst = [&](client::TenantSession& s, int n) {
    for (int i = 0; i < n; ++i) ios.push_back(s.Read(8 * i, 8));
  };
  auto run_checked = [&](sim::TimeNs span, const char* when) {
    const sim::TimeNs end = h.sim.Now() + span;
    while (h.sim.Now() < end) {
      h.sim.RunUntil(h.sim.Now() + Micros(100));
      ExpectQueueCountsMatch(h.server, when);
    }
  };
  // Each move retires a tenant's debt and grants a fresh 50-token
  // burst, so the backlog must outlast several moves.
  burst(*session_b, 300);
  burst(*session_c, 300);
  run_checked(Millis(5), "backlog building on one thread");
  ASSERT_GT(b->queue_depth(), 0u);

  // Growing rebalances: b (handle order, equal rates) moves to the
  // restarted thread 1 with its backlog.
  ASSERT_TRUE(h.server.control_plane().ScaleTo(2));
  ASSERT_EQ(b->thread_index(), 1);
  ASSERT_GT(b->queue_depth(), 0u);
  ExpectQueueCountsMatch(h.server, "after grow + rebalance");

  // b's new requests arrive on thread 0 and queue on thread 1.
  const int64_t rx0 = h.server.thread(0).stats().requests_rx;
  const int64_t rx1 = h.server.thread(1).stats().requests_rx;
  burst(*session_b, 40);
  run_checked(Millis(2), "cross-thread enqueue");
  EXPECT_EQ(h.server.thread(0).stats().requests_rx - rx0, 40);
  EXPECT_EQ(h.server.thread(1).stats().requests_rx, rx1);

  ASSERT_GT(c->queue_depth(), 0u);
  ASSERT_TRUE(h.server.UnregisterTenant(c->handle()));
  ExpectQueueCountsMatch(h.server, "after unregistering a backlogged tenant");
  run_checked(Millis(1), "after unregister");

  ASSERT_GT(b->queue_depth(), 0u);
  h.server.control_plane().RebalanceTenants();
  ExpectQueueCountsMatch(h.server, "after rebalance");
  ASSERT_TRUE(h.server.control_plane().ScaleTo(1));
  ExpectQueueCountsMatch(h.server, "after shrinking a backlogged thread");

  burst(*session_a, 10);
  ASSERT_TRUE(h.RunUntilReady([&] {
    return std::all_of(ios.begin(), ios.end(),
                       [](const auto& io) { return io.Ready(); });
  }));
  ExpectQueueCountsMatch(h.server, "drained");
  EXPECT_FALSE(h.server.thread(0).scheduler().HasPendingDemand());
}

TEST(ControlPlaneTest, PersistentBurstersGetFlagged) {
  Harness h;
  // A tenant with a tiny reservation driven far above it.
  core::Tenant* tenant = h.LcTenant(1000, 1.0, Millis(2));
  client::ReflexClient client(h.sim, h.server, h.client_machine, {});
  auto session = client.AttachSession(tenant->handle());
  client::LoadGenSpec spec;
  spec.offered_iops = 50000;  // 50x the SLO
  spec.read_fraction = 1.0;
  client::LoadGenerator load(h.sim, *session, spec);
  load.Run(0, Millis(300));
  h.RunUntilDone(load.Done(), sim::Seconds(60));

  EXPECT_GT(h.server.control_plane().neg_limit_notifications(), 0);
  bool flagged = false;
  for (uint32_t handle : h.server.control_plane().flagged_tenants()) {
    flagged |= (handle == tenant->handle());
  }
  EXPECT_TRUE(flagged) << "control plane flags SLO renegotiation";
}

TEST(ControlPlaneTest, ShrinkThenGrowRestartsStoppedThreads) {
  core::ServerOptions options;
  options.num_threads = 3;
  options.max_threads = 6;
  Harness h(options);
  ASSERT_EQ(h.server.num_threads(), 3);

  ASSERT_TRUE(h.server.control_plane().ScaleTo(1));
  ASSERT_TRUE(h.server.control_plane().ScaleTo(3));
  EXPECT_EQ(h.server.num_active_threads(), 3);
  EXPECT_EQ(h.server.num_threads(), 3)
      << "growing after a shrink restarts the stopped threads instead "
         "of appending new ones (which would desync active_threads_ "
         "from the live thread indices)";
  EXPECT_EQ(h.server.shared().num_threads, 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(h.server.thread(i).running()) << "thread " << i;
  }

  // End to end: a connection routed round-robin across the active
  // threads still reaches a live one.
  core::Tenant* tenant = h.LcTenant();
  client::ReflexClient::Options copts;
  copts.num_connections = 3;
  client::ReflexClient client(h.sim, h.server, h.client_machine, copts);
  auto session = client.AttachSession(tenant->handle());
  for (int c = 0; c < 3; ++c) {
    auto io = session->Read(c * 800, 8, nullptr, c);
    ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
    EXPECT_TRUE(io.Get().ok()) << "connection " << c;
  }
}

TEST(ControlPlaneTest, ScaleToClearsStaleEpochMarks) {
  core::ServerOptions options;
  options.num_threads = 3;
  options.max_threads = 3;
  Harness h(options);
  auto noop = [](core::Tenant&, core::PendingIo&&) {};

  // Thread 2 completes a round and marks the current epoch (1 of 3).
  h.server.thread(2).scheduler().RunRound(0, noop);
  EXPECT_EQ(h.server.shared().threads_marked.load(), 1);

  // Shrinking to 2 threads must discard that mark: it was collected
  // under a 3-thread quorum and thread 2 is no longer participating.
  ASSERT_TRUE(h.server.control_plane().ScaleTo(2));
  EXPECT_EQ(h.server.shared().threads_marked.load(), 0);

  h.server.shared().global_bucket.Donate(100.0);
  h.server.thread(0).scheduler().RunRound(0, noop);
  EXPECT_NEAR(h.server.shared().global_bucket.Tokens(), 100.0, 1e-9)
      << "one mark out of two must not complete the epoch; the stale "
         "pre-shrink mark would make this round reset the bucket";
}

TEST(ControlPlaneTest, MonitorStartsFromFreshUtilizationBaselines) {
  core::ServerOptions options;
  options.num_threads = 1;
  options.max_threads = 4;
  options.auto_scale = false;  // monitor started manually below
  options.monitor_interval = Millis(5);
  Harness h(options);
  core::Tenant* tenant = h.BeTenant();
  client::ReflexClient::Options copts;
  copts.num_connections = 8;
  client::ReflexClient client(h.sim, h.server, h.client_machine, copts);
  auto session = client.AttachSession(tenant->handle());

  // Saturate the single thread for 100ms with the monitor off, then
  // let the load drain completely.
  client::LoadGenSpec spec;
  spec.queue_depth = 256;
  spec.request_bytes = 1024;
  client::LoadGenerator load(h.sim, *session, spec);
  load.Run(Millis(10), Millis(100));
  ASSERT_TRUE(h.RunUntilDone(load.Done(), sim::Seconds(60)));
  ASSERT_EQ(h.server.num_active_threads(), 1);

  // The monitor's first window must measure utilization from now on,
  // not charge the whole loaded phase's busy time to one interval.
  h.server.control_plane().StartMonitor();
  h.RunUntilReady([] { return false; }, h.sim.Now() + Millis(50));
  EXPECT_EQ(h.server.num_active_threads(), 1)
      << "idle server scaled up from stale busy-time baselines";
  // Even a transient spurious scale-up leaves a second thread object
  // behind, so this catches scale-up-then-scale-down flapping too.
  EXPECT_EQ(h.server.num_threads(), 1)
      << "monitor transiently scaled up before settling back";
}

TEST(ControlPlaneTest, AutoScaleMonitorAddsThreads) {
  core::ServerOptions options;
  options.num_threads = 1;
  options.max_threads = 4;
  options.auto_scale = true;
  options.monitor_interval = Millis(5);
  Harness h(options);
  core::Tenant* tenant = h.BeTenant();
  client::ReflexClient::Options copts;
  copts.num_connections = 8;
  client::ReflexClient client(h.sim, h.server, h.client_machine, copts);
  auto session = client.AttachSession(tenant->handle());
  client::LoadGenSpec spec;
  spec.queue_depth = 256;  // saturate the single core
  spec.request_bytes = 1024;
  client::LoadGenerator load(h.sim, *session, spec);
  load.Run(Millis(10), Millis(120));
  h.RunUntilDone(load.Done(), sim::Seconds(60));
  EXPECT_GT(h.server.num_active_threads(), 1)
      << "monitor scaled up under saturation";
}

}  // namespace
}  // namespace reflex
