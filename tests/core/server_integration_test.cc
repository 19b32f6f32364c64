#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "client/load_generator.h"
#include "client/reflex_client.h"
#include "testing/harness.h"

namespace reflex {
namespace {

using client::IoResult;
using client::LoadGenSpec;
using client::LoadGenerator;
using client::ReflexClient;
using core::ReqStatus;
using core::SloSpec;
using core::TenantClass;
using sim::Micros;
using sim::Millis;
using testing::Harness;

ReflexClient::Options IxClient(int conns = 1) {
  ReflexClient::Options o;
  o.stack = net::StackCosts::IxDataplane();
  o.num_connections = conns;
  return o;
}

ReflexClient::Options LinuxClient(int conns = 1) {
  ReflexClient::Options o;
  o.stack = net::StackCosts::LinuxEpoll();
  o.num_connections = conns;
  return o;
}

TEST(ServerIntegrationTest, UnloadedReadLatencyMatchesTable2) {
  Harness h;
  core::Tenant* tenant = h.LcTenant();
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient());
  auto session = client.AttachSession(tenant->handle());

  LoadGenSpec spec;
  spec.read_fraction = 1.0;
  spec.queue_depth = 1;
  spec.stop_after_ops = 400;
  spec.warmup_ops = 50;
  LoadGenerator gen(h.sim, *session, spec);
  gen.Run(0, 0);
  ASSERT_TRUE(h.RunUntilDone(gen.Done()));

  // Paper Table 2, ReFlex + IX client: 99us avg / 113us p95 for 4KB
  // random reads (local Flash is ~78, ReFlex adds ~21us).
  const double avg_us = gen.read_latency().Mean() / 1e3;
  const double p95_us = gen.read_latency().Percentile(0.95) / 1e3;
  EXPECT_GT(avg_us, 88.0);
  EXPECT_LT(avg_us, 112.0);
  EXPECT_GT(p95_us, 95.0);
  EXPECT_LT(p95_us, 130.0);
}

TEST(ServerIntegrationTest, UnloadedWriteLatencyMatchesTable2) {
  Harness h;
  // A QD-1 write stream completes every ~30us (~33K writes/s); the
  // reservation must exceed that or the scheduler paces the probe.
  core::Tenant* tenant = h.LcTenant(45000, 0.0);
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient());
  auto session = client.AttachSession(tenant->handle());

  LoadGenSpec spec;
  spec.read_fraction = 0.0;
  spec.queue_depth = 1;
  spec.stop_after_ops = 400;
  spec.warmup_ops = 50;
  LoadGenerator gen(h.sim, *session, spec);
  gen.Run(0, 0);
  ASSERT_TRUE(h.RunUntilDone(gen.Done()));

  // Paper: 31us avg / 34us p95 (writes ack from device DRAM buffer).
  const double avg_us = gen.write_latency().Mean() / 1e3;
  EXPECT_GT(avg_us, 24.0);
  EXPECT_LT(avg_us, 42.0);
}

TEST(ServerIntegrationTest, LinuxClientAddsLatency) {
  Harness h;
  core::Tenant* tenant = h.LcTenant();

  auto measure = [&](ReflexClient::Options options) {
    ReflexClient client(h.sim, h.server, h.client_machine, options);
    auto session = client.AttachSession(tenant->handle());
    LoadGenSpec spec;
    spec.queue_depth = 1;
    spec.stop_after_ops = 300;
    spec.warmup_ops = 30;
    spec.seed = 123;
    LoadGenerator gen(h.sim, *session, spec);
    gen.Run(0, 0);
    EXPECT_TRUE(h.RunUntilDone(gen.Done(), h.sim.Now() + sim::Seconds(30)));
    return gen.read_latency().Mean() / 1e3;
  };

  const double ix_us = measure(IxClient());
  const double linux_us = measure(LinuxClient());
  // Table 2: Linux client adds ~18us over the IX client on reads.
  EXPECT_GT(linux_us - ix_us, 8.0);
  EXPECT_LT(linux_us - ix_us, 35.0);
}

TEST(ServerIntegrationTest, InbandRegistrationAndIo) {
  Harness h;
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient());

  SloSpec slo;
  slo.iops = 30000;
  slo.read_fraction = 1.0;
  slo.latency = Millis(1);
  auto reg = client.Register(slo, TenantClass::kLatencyCritical);
  ASSERT_TRUE(h.RunUntilReady([&] { return reg.Ready(); }));
  EXPECT_EQ(reg.Get().status, ReqStatus::kOk);
  const uint32_t handle = reg.Get().handle;
  EXPECT_NE(handle, 0u);

  auto session = client.AttachSession(handle);
  ASSERT_NE(session, nullptr);
  auto io = session->Read(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  EXPECT_TRUE(io.Get().ok());

  auto unreg = client.Unregister(handle);
  ASSERT_TRUE(h.RunUntilReady([&] { return unreg.Ready(); }));
  EXPECT_EQ(unreg.Get().status, ReqStatus::kOk);

  // I/O for an unregistered tenant now fails.
  auto io2 = session->Read(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io2.Ready(); }));
  EXPECT_EQ(io2.Get().status, ReqStatus::kNoSuchTenant);
}

TEST(ServerIntegrationTest, InadmissibleSloRejectedInband) {
  Harness h;
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient());
  SloSpec slo;
  slo.iops = 10000000;  // 10M IOPS: far beyond the device
  slo.read_fraction = 0.5;
  slo.latency = Micros(500);
  auto reg = client.Register(slo, TenantClass::kLatencyCritical);
  ASSERT_TRUE(h.RunUntilReady([&] { return reg.Ready(); }));
  EXPECT_EQ(reg.Get().status, ReqStatus::kOutOfResources);
}

TEST(ServerIntegrationTest, AdmissionControlDirect) {
  Harness h;
  // Device A @500us p95 supports ~420K tokens/s. A 100K IOPS 80%-read
  // tenant reserves 280K tokens/s; two of them exceed the cap.
  SloSpec slo;
  slo.iops = 100000;
  slo.read_fraction = 0.8;
  slo.latency = Micros(500);
  ReqStatus s1, s2;
  EXPECT_NE(h.server.RegisterTenant(slo, TenantClass::kLatencyCritical, &s1),
            nullptr);
  EXPECT_EQ(s1, ReqStatus::kOk);
  EXPECT_EQ(h.server.RegisterTenant(slo, TenantClass::kLatencyCritical, &s2),
            nullptr);
  EXPECT_EQ(s2, ReqStatus::kOutOfResources);
}

TEST(ServerIntegrationTest, StrictAclDeniesIo) {
  core::ServerOptions options;
  options.strict_acl = true;
  Harness h(options);
  h.server.acl().SetStrict(true);
  core::Tenant* tenant = h.LcTenant();
  h.server.acl().AddNamespace(1, 0, 1 << 20);
  h.server.acl().GrantTenant(tenant->handle(), 1, /*read=*/true,
                             /*write=*/false);
  h.server.acl().AllowClient("client-0", tenant->handle());
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient());
  auto session = client.AttachSession(tenant->handle());
  ASSERT_NE(session, nullptr);

  auto read_in = session->Read(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return read_in.Ready(); }));
  EXPECT_TRUE(read_in.Get().ok());

  auto write_denied = session->Write(0, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return write_denied.Ready(); }));
  EXPECT_EQ(write_denied.Get().status, ReqStatus::kAccessDenied);

  auto read_outside = session->Read(1 << 21, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return read_outside.Ready(); }));
  EXPECT_EQ(read_outside.Get().status, ReqStatus::kAccessDenied);
}

/**
 * A tenant writes 8 sectors at LBA 2^64 - 4, where lba + sectors wraps
 * to 4: every range check must still see the request as out of range,
 * and the victim's first sectors must keep their bytes. `strict` runs
 * it under a strict ACL with the attacker granted only [2^20, 2^21).
 */
void ExpectWrappedWriteLeavesVictimIntact(bool strict) {
  core::ServerOptions options;
  options.strict_acl = strict;
  Harness h(options);
  h.server.acl().SetStrict(strict);
  core::Tenant* victim = h.LcTenant();
  core::Tenant* attacker = h.BeTenant();
  h.server.acl().AddNamespace(1, 0, 1 << 20);
  h.server.acl().AddNamespace(2, 1 << 20, 1 << 20);
  h.server.acl().GrantTenant(victim->handle(), 1, /*read=*/true,
                             /*write=*/true);
  h.server.acl().GrantTenant(attacker->handle(), 2, /*read=*/true,
                             /*write=*/true);
  h.server.acl().AllowClient("client-0", victim->handle());
  h.server.acl().AllowClient("client-0", attacker->handle());
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient());
  auto victim_session = client.AttachSession(victim->handle());
  auto attacker_session = client.AttachSession(attacker->handle());
  ASSERT_NE(victim_session, nullptr);
  ASSERT_NE(attacker_session, nullptr);

  std::vector<uint8_t> original(4096);
  for (size_t i = 0; i < original.size(); ++i) {
    original[i] = static_cast<uint8_t>(i * 13 + 1);
  }
  auto planted = victim_session->Write(0, 8, original.data());
  ASSERT_TRUE(h.RunUntilReady([&] { return planted.Ready(); }));
  ASSERT_TRUE(planted.Get().ok());

  std::vector<uint8_t> overwrite(4096, 0xee);
  auto wrapped =
      attacker_session->Write(~uint64_t{0} - 3, 8, overwrite.data());
  ASSERT_TRUE(h.RunUntilReady([&] { return wrapped.Ready(); }));
  EXPECT_EQ(wrapped.Get().status, strict ? ReqStatus::kAccessDenied
                                         : ReqStatus::kInvalidRange);

  std::vector<uint8_t> in(4096, 0);
  auto check = victim_session->Read(0, 8, in.data());
  ASSERT_TRUE(h.RunUntilReady([&] { return check.Ready(); }));
  ASSERT_TRUE(check.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), original.data(), in.size()), 0)
      << "the wrapped write reached the victim's sectors";
}

TEST(ServerIntegrationTest, WrappingLbaDeniedUnderStrictAcl) {
  ExpectWrappedWriteLeavesVictimIntact(/*strict=*/true);
}

TEST(ServerIntegrationTest, WrappingLbaRejectedAsInvalidRange) {
  ExpectWrappedWriteLeavesVictimIntact(/*strict=*/false);
}

TEST(ServerIntegrationTest, InvalidRangeRejected) {
  Harness h;
  core::Tenant* tenant = h.LcTenant();
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient());
  auto session = client.AttachSession(tenant->handle());
  auto io = session->Read(h.device.profile().capacity_sectors, 8);
  ASSERT_TRUE(h.RunUntilReady([&] { return io.Ready(); }));
  EXPECT_EQ(io.Get().status, ReqStatus::kInvalidRange);
}

TEST(ServerIntegrationTest, DataRoundTripThroughServer) {
  Harness h;
  core::Tenant* tenant = h.LcTenant();
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient());
  auto session = client.AttachSession(tenant->handle());

  std::vector<uint8_t> out(4096);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(i * 7);
  }
  auto w = session->Write(2048, 8, out.data());
  ASSERT_TRUE(h.RunUntilReady([&] { return w.Ready(); }));
  ASSERT_TRUE(w.Get().ok());

  std::vector<uint8_t> in(4096, 0);
  auto r = session->Read(2048, 8, in.data());
  ASSERT_TRUE(h.RunUntilReady([&] { return r.Ready(); }));
  ASSERT_TRUE(r.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), 4096), 0);
}

TEST(ServerIntegrationTest, SingleCoreThroughputNear850K) {
  Harness h;
  core::Tenant* tenant = h.LcTenant(400000, 1.0, Millis(2));
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient(16));
  auto session = client.AttachSession(tenant->handle());

  LoadGenSpec spec;
  spec.read_fraction = 1.0;
  spec.request_bytes = 1024;  // 1KB as in section 5.3
  spec.queue_depth = 512;
  spec.seed = 5;
  LoadGenerator gen(h.sim, *session, spec);
  gen.Run(Millis(50), Millis(250));
  ASSERT_TRUE(h.RunUntilDone(gen.Done()));

  // Paper: ReFlex serves up to 850K IOPS with one core (1KB reads).
  EXPECT_GT(gen.AchievedIops(), 700000.0);
  EXPECT_LT(gen.AchievedIops(), 1000000.0);

  // Section 5.3: ~20% of cycles in TCP, 2-8% in QoS scheduling.
  const core::DataplaneStats stats = h.server.AggregateStats();
  const double tcp_share = static_cast<double>(stats.tcp_ns) /
                           static_cast<double>(stats.busy_ns);
  const double sched_share = static_cast<double>(stats.sched_ns) /
                             static_cast<double>(stats.busy_ns);
  EXPECT_GT(tcp_share, 0.10);
  EXPECT_LT(tcp_share, 0.45);
  EXPECT_GT(sched_share, 0.005);
  EXPECT_LT(sched_share, 0.12);
}

TEST(ServerIntegrationTest, DeterministicEndToEnd) {
  auto run_once = [] {
    Harness h;
    core::Tenant* tenant = h.LcTenant();
    ReflexClient client(h.sim, h.server, h.client_machine, IxClient());
    auto session = client.AttachSession(tenant->handle());
    LoadGenSpec spec;
    spec.read_fraction = 0.8;
    spec.queue_depth = 4;
    spec.stop_after_ops = 200;
    LoadGenerator gen(h.sim, *session, spec);
    gen.Run(0, 0);
    h.RunUntilDone(gen.Done());
    return std::make_tuple(gen.read_latency().Mean(),
                           gen.read_latency().Percentile(0.95),
                           gen.write_latency().Mean(),
                           h.sim.EventsProcessed());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ServerIntegrationTest, UdpTransportImprovesThroughput) {
  auto peak_iops = [](net::Transport transport) {
    core::ServerOptions options;
    options.transport = transport;
    Harness h(options);
    core::Tenant* tenant = h.BeTenant();
    ReflexClient client(h.sim, h.server, h.client_machine, IxClient(16));
    auto session = client.AttachSession(tenant->handle());
    LoadGenSpec spec;
    spec.request_bytes = 1024;
    spec.queue_depth = 512;
    spec.seed = 5;
    LoadGenerator gen(h.sim, *session, spec);
    gen.Run(Millis(40), Millis(160));
    h.RunUntilDone(gen.Done());
    return gen.AchievedIops();
  };
  const double tcp = peak_iops(net::Transport::kTcp);
  const double udp = peak_iops(net::Transport::kUdp);
  // Section 4.1: lighter transports raise per-core throughput.
  EXPECT_GT(udp, tcp * 1.05);
}

TEST(ServerIntegrationTest, TenantCountersTrackCompletions) {
  Harness h;
  core::Tenant* tenant = h.LcTenant();
  ReflexClient client(h.sim, h.server, h.client_machine, IxClient());
  auto session = client.AttachSession(tenant->handle());
  LoadGenSpec spec;
  spec.read_fraction = 0.5;
  spec.queue_depth = 2;
  spec.stop_after_ops = 100;
  spec.seed = 777;
  LoadGenerator gen(h.sim, *session, spec);
  gen.Run(0, 0);
  ASSERT_TRUE(h.RunUntilDone(gen.Done()));
  EXPECT_EQ(tenant->completed_reads + tenant->completed_writes, 100);
  EXPECT_EQ(tenant->submitted_reads, tenant->completed_reads);
  EXPECT_EQ(tenant->submitted_writes, tenant->completed_writes);
  EXPECT_GT(tenant->tokens_spent, 0.0);
}

}  // namespace
}  // namespace reflex
