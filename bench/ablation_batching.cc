// Ablation D2: adaptive batching. The paper caps the adaptive batch at
// 64 "to avoid excessive latencies" and credits batching with
// amortizing per-iteration overheads. This bench sweeps the batch cap
// (1 = no batching) and measures single-core peak throughput and p95
// latency at moderate load for 1KB reads.
//
// Expected: cap 1 loses a large fraction of peak IOPS (per-iteration
// costs paid per request); very large caps buy little extra throughput
// but hurt tail latency under load, which is why 64 is a good balance.

#include <cstdio>

#include "bench/common.h"
#include "client/reflex_client.h"

namespace reflex {
namespace {

void RunPoint(int max_batch) {
  core::ServerOptions options;
  options.num_threads = 1;
  options.dataplane.max_batch = max_batch;
  bench::BenchWorld world(options);

  core::Tenant* tenant = world.server->RegisterTenant(
      core::SloSpec{}, core::TenantClass::kBestEffort);
  client::ReflexClient::Options copts;
  copts.stack = net::StackCosts::IxDataplane();
  copts.num_connections = 16;
  client::ReflexClient client(world.sim, *world.server,
                              world.client_machines[0], copts);
  auto session = client.AttachSession(tenant->handle());

  // Peak: heavy open-loop overload, count what gets through.
  bench::LoadPoint peak = bench::MeasureOpenLoop(
      world, {session.get()}, 1200000.0, 1.0, 2, sim::Millis(50),
      sim::Millis(200));
  // Moderate load: 300K IOPS, look at the tail.
  bench::LoadPoint moderate = bench::MeasureOpenLoop(
      world, {session.get()}, 300000.0, 1.0, 2, sim::Millis(50),
      sim::Millis(200));

  std::printf("%9d %14.0f %18.1f %18.1f\n", max_batch, peak.achieved_iops,
              sim::ToMicros(moderate.read_p95),
              sim::ToMicros(peak.read_p95));
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::bench::Banner(
      "Ablation D2 - adaptive batching cap (paper: 64)",
      "peak single-core IOPS and p95 latency vs batch cap");
  std::printf("%9s %14s %18s %18s\n", "batch_cap", "peak_iops",
              "p95_us_at_300K", "p95_us_at_peak");
  for (int cap : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    reflex::RunPoint(cap);
  }
  std::printf(
      "\nCheck: no batching (cap 1) sacrifices a large share of peak\n"
      "IOPS; caps beyond 64 add little throughput while increasing the\n"
      "tail under overload -- the paper's 64 balances both.\n");
  return 0;
}
