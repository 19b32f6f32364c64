// Reproduces Figure 4: p95 latency vs throughput for 1KB read-only
// requests -- Local (SPDK), ReFlex, and the libaio/libevent baseline,
// each with 1 and 2 server threads.
//
// Paper: one ReFlex core serves up to 850K IOPS; two cores saturate
// the device's 1M IOPS with negligible latency over local access. The
// libaio server manages only ~75K IOPS/core at higher latency. Also
// prints ReFlex's cycle breakdown (section 5.3: ~20% TCP, 2-8% QoS
// scheduling).

#include <cstdio>
#include <memory>
#include <vector>

#include "baseline/kernel_server.h"
#include "baseline/local_spdk.h"
#include "bench/common.h"
#include "client/reflex_client.h"

namespace reflex {
namespace {

void PrintCurve(const char* name, const std::vector<bench::LoadPoint>& pts) {
  for (const bench::LoadPoint& p : pts) {
    std::printf("%-12s %12.0f %12.0f %12.1f %12.1f\n", name,
                p.offered_iops, p.achieved_iops,
                sim::ToMicros(p.read_p95), sim::ToMicros(p.read_mean));
  }
  std::printf("\n");
}

std::vector<double> Sweep(double max_iops) {
  return {0.1 * max_iops, 0.25 * max_iops, 0.4 * max_iops, 0.55 * max_iops,
          0.7 * max_iops, 0.8 * max_iops,  0.9 * max_iops, 0.97 * max_iops};
}

void RunLocal(int threads) {
  bench::BenchWorld world;
  baseline::LocalSpdkService::Options o;
  o.num_threads = threads;
  baseline::LocalSpdkService local(world.sim, world.device, o);
  const double cap = threads == 1 ? 850000.0 : 1140000.0;
  std::vector<bench::LoadPoint> pts;
  for (double offered : Sweep(cap)) {
    pts.push_back(
        bench::MeasureOpenLoop(world, {&local}, offered, 1.0, 2));
  }
  char name[32];
  std::snprintf(name, sizeof(name), "Local-%dT", threads);
  PrintCurve(name, pts);
}

void RunReflex(int threads) {
  core::ServerOptions options;
  options.num_threads = threads;
  bench::BenchWorld world(options);

  // One BE tenant per dataplane thread (a tenant is served by exactly
  // one thread; the paper scales tenants with threads).
  std::vector<std::unique_ptr<client::ReflexClient>> clients;
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  std::vector<client::IoSession*> session_ptrs;
  for (int t = 0; t < threads; ++t) {
    core::Tenant* tenant = world.server->RegisterTenant(
        core::SloSpec{}, core::TenantClass::kBestEffort);
    client::ReflexClient::Options copts;
    copts.stack = net::StackCosts::IxDataplane();
    copts.num_connections = 8;
    copts.seed = 100 + t;
    // 1/64 sampling: enough spans for a stable breakdown at ~1M IOPS
    // without perturbing the measurement (tracing charges no simulated
    // CPU time, so achieved IOPS is unchanged; see DESIGN.md).
    copts.trace_sample_every = 64;
    clients.push_back(std::make_unique<client::ReflexClient>(
        world.sim, *world.server,
        world.client_machines[t % world.client_machines.size()], copts));
    sessions.push_back(clients.back()->AttachSession(tenant->handle()));
    session_ptrs.push_back(sessions.back().get());
  }

  const double cap = threads == 1 ? 880000.0 : 1140000.0;
  std::vector<bench::LoadPoint> pts;
  core::DataplaneStats before;
  for (double offered : Sweep(cap)) {
    before = world.server->AggregateStats();  // snapshot before last point
    world.server->tracer().Reset();  // breakdown covers the last point
    pts.push_back(bench::MeasureOpenLoop(world, session_ptrs, offered, 1.0, 2));
  }
  char name[32];
  std::snprintf(name, sizeof(name), "ReFlex-%dT", threads);
  PrintCurve(name, pts);

  // Cycle breakdown over the highest-load point only (section 5.3
  // quotes shares "at high load").
  const core::DataplaneStats after = world.server->AggregateStats();
  const double busy = static_cast<double>(after.busy_ns - before.busy_ns);
  std::printf(
      "# %s cycle breakdown at peak load: TCP %.1f%%, QoS sched %.1f%%, "
      "flash submit/completion %.1f%% of busy cycles; mean batch %.1f "
      "(paper: ~20%% TCP, 2-8%% sched, batching bounded at 64)\n\n",
      name, 100.0 * (after.tcp_ns - before.tcp_ns) / busy,
      100.0 * (after.sched_ns - before.sched_ns) / busy,
      100.0 * (after.flash_ns - before.flash_ns) / busy,
      static_cast<double>(after.batch_sum - before.batch_sum) /
          static_cast<double>(after.iterations - before.iterations));

  // Per-stage latency breakdown at the same peak-load point, from the
  // 1/64-sampled trace spans.
  char label[32];
  std::snprintf(label, sizeof(label), "reflex_%dt_peak", threads);
  bench::DumpBreakdown(*world.server, "fig4_throughput", label);
  std::printf("\n");
}

void RunLibaio(int threads) {
  bench::BenchWorld world;
  baseline::KernelStorageServer libaio(
      world.sim, world.net, world.client_machines[0], world.server_machine,
      world.device,
      baseline::BaselineCosts::Libaio(net::StackCosts::IxDataplane(),
                                      threads),
      threads * 32);
  const double cap = threads * 78000.0;
  std::vector<bench::LoadPoint> pts;
  for (double offered : Sweep(cap)) {
    pts.push_back(
        bench::MeasureOpenLoop(world, {&libaio}, offered, 1.0, 2));
  }
  char name[32];
  std::snprintf(name, sizeof(name), "Libaio-%dT", threads);
  PrintCurve(name, pts);
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::bench::Banner(
      "Figure 4 - tail latency vs throughput, 1KB read-only",
      "ReFlex ~850K IOPS/core vs libaio ~75K IOPS/core");
  std::printf("%-12s %12s %12s %12s %12s\n", "system", "offered",
              "achieved", "p95_us", "mean_us");
  reflex::RunLocal(1);
  reflex::RunLocal(2);
  reflex::RunReflex(1);
  reflex::RunReflex(2);
  reflex::RunLibaio(1);
  reflex::RunLibaio(2);
  std::printf(
      "Check: ReFlex-1T tracks Local-1T closely and saturates near\n"
      "850K IOPS; ReFlex-2T reaches the device's ~1.1M read-only IOPS;\n"
      "Libaio saturates >10x lower per core.\n");
  return 0;
}
