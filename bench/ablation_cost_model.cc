// Ablation D3: what the calibrated cost model buys. The scheduler is
// run with deliberately mis-set write costs: C(write)=1 ("all I/Os are
// equal", the assumption of fair queueing without device knowledge)
// up to C(write)=40 (over-conservative). A fig5-style LC tenant shares
// the device with a write-heavy best-effort tenant.
//
// Expected: under-pricing writes admits too much BE write traffic and
// blows the LC tail; over-pricing protects latency but wastes device
// throughput (BE IOPS collapse). The calibrated value (~10 tokens for
// device A) both meets the SLO and stays work-conserving.

#include <cstdio>

#include "bench/common.h"
#include "client/load_generator.h"
#include "client/reflex_client.h"

namespace reflex {
namespace {

void RunPoint(double write_cost) {
  flash::CalibrationResult calibration = flash::CannedCalibrationA();
  calibration.write_cost = write_cost;  // the mis-calibration

  core::ServerOptions options;
  options.num_threads = 1;
  options.qos.neg_limit = -15.0 * write_cost;  // same burst depth in writes
  bench::BenchWorld world(options);
  // Rebuild the server with the altered calibration.
  core::ReflexServer server(world.sim, world.net, world.server_machine,
                            world.device, calibration, options);

  core::SloSpec slo;
  slo.iops = 110000;
  slo.read_fraction = 1.0;
  slo.latency = sim::Micros(500);
  core::Tenant* lc =
      server.RegisterTenant(slo, core::TenantClass::kLatencyCritical);
  core::Tenant* be =
      server.RegisterTenant(core::SloSpec{}, core::TenantClass::kBestEffort);

  client::ReflexClient::Options copts;
  copts.num_connections = 8;
  client::ReflexClient lc_client(world.sim, server,
                                 world.client_machines[0], copts);
  auto lc_session = lc_client.AttachSession(lc->handle());
  client::LoadGenSpec lc_spec;
  lc_spec.offered_iops = 100000;
  lc_spec.poisson_arrivals = false;
  lc_spec.read_fraction = 1.0;
  client::LoadGenerator lc_load(world.sim, *lc_session, lc_spec);

  client::ReflexClient::Options be_copts;
  be_copts.num_connections = 8;
  be_copts.seed = 2;
  client::ReflexClient be_client(world.sim, server,
                                 world.client_machines[1], be_copts);
  auto be_session = be_client.AttachSession(be->handle());
  client::LoadGenSpec be_spec;
  be_spec.queue_depth = 32;
  be_spec.read_fraction = 0.25;  // write-heavy interference
  be_spec.seed = 3;
  client::LoadGenerator be_load(world.sim, *be_session, be_spec);

  lc_load.Run(sim::Millis(100), sim::Millis(500));
  be_load.Run(sim::Millis(100), sim::Millis(500));
  world.Await(lc_load.Done(), sim::Seconds(60));
  world.Await(be_load.Done(), sim::Seconds(60));

  std::printf("%10.0f %12.0f %14.1f %12.0f %10s\n", write_cost,
              lc_load.AchievedIops(),
              lc_load.read_latency().Percentile(0.95) / 1e3,
              be_load.AchievedIops(),
              lc_load.read_latency().Percentile(0.95) <= sim::Micros(500)
                  ? "met"
                  : "VIOLATED");
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::bench::Banner(
      "Ablation D3 - mis-calibrated write cost (device A truth: ~10)",
      "LC 500us SLO under write-heavy BE vs the scheduler's C(write)");
  std::printf("%10s %12s %14s %12s %10s\n", "C(write)", "lc_iops",
              "lc_p95_us", "be_iops", "SLO");
  for (double cost : {1.0, 2.0, 5.0, 10.0, 20.0, 40.0}) {
    reflex::RunPoint(cost);
  }
  std::printf(
      "\nCheck: under-pricing writes (C=1..5) admits far too much BE\n"
      "write traffic and blows the LC tail by ~10x. The calibrated ~10\n"
      "recovers almost all of it; the residual gap at this extreme\n"
      "25%%-read BE mix is the cost-model collapse error documented in\n"
      "EXPERIMENTS.md (the r=90%% calibration curve is optimistic for\n"
      "very write-heavy device mixes). Over-pricing (C=20..40) meets\n"
      "the SLO but strands device throughput: BE IOPS fall far below\n"
      "the work-conserving level.\n");
  return 0;
}
