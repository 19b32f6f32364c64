// Server scaling on a sharded cluster: aggregate IOPS vs number of
// ReFlex servers (the multi-server deployment of paper section 5, "a
// ReFlex instance per Flash device, scaled out across machines").
//
// A logical volume is striped (64KB stripes) over N independent ReFlex
// servers, each with its own Flash device, QoS scheduler and control
// plane. One latency-critical tenant reserves N x 150K IOPS (100%
// read, 4KB) at a 500us p95 SLO cluster-wide -- the ClusterControlPlane
// splits the reservation into equal per-shard shares -- and four client
// machines drive the offered load open-loop through ClusterClient
// sessions. Because the shards are shared-nothing, aggregate IOPS
// should scale near-linearly with N while every shard's p95 stays
// within the 500us SLO.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/common.h"
#include "cluster/cluster_client.h"

namespace reflex {
namespace {

constexpr double kPerShardIops = 150000.0;
constexpr sim::TimeNs kSloP95 = sim::Micros(500);

struct Driver {
  std::unique_ptr<cluster::ClusterClient> client;
  std::unique_ptr<cluster::ClusterSession> session;
};

double RunPoint(int num_shards, double* worst_shard_p95_us) {
  sim::Simulator sim;
  net::Network net(sim);

  cluster::FlashClusterOptions options;
  options.num_shards = num_shards;
  options.calibration = flash::CannedCalibrationA();
  cluster::FlashCluster flash_cluster(sim, net, options);

  // One cluster-wide LC reservation covering the whole offered load;
  // admission splits it into 150K IOPS per shard.
  core::SloSpec slo;
  slo.iops = static_cast<uint32_t>(num_shards * kPerShardIops);
  slo.read_fraction = 1.0;
  slo.latency = kSloP95;
  cluster::ClusterTenant tenant =
      flash_cluster.control_plane().RegisterTenant(
          slo, core::TenantClass::kLatencyCritical);
  if (!tenant.valid()) {
    std::fprintf(stderr, "cluster tenant inadmissible at N=%d\n",
                 num_shards);
    std::abort();
  }

  // Four client machines, each with its own per-shard connection pools
  // and session over the shared tenant.
  std::vector<Driver> drivers;
  std::vector<client::IoSession*> sessions;
  for (int i = 0; i < 4; ++i) {
    Driver d;
    cluster::ClusterClient::Options copts;
    copts.client.stack = net::StackCosts::IxDataplane();
    copts.client.num_connections = 2;
    copts.client.seed = 1000 + i;
    d.client = std::make_unique<cluster::ClusterClient>(
        flash_cluster, net.AddMachine("client-" + std::to_string(i)),
        copts);
    d.session = d.client->AttachSession(tenant);
    if (d.session == nullptr) {
      std::fprintf(stderr, "cluster session refused\n");
      std::abort();
    }
    sessions.push_back(d.session.get());
    drivers.push_back(std::move(d));
  }

  // 4KB reads, stripe-aligned (64KB stripes), offered at the full
  // reservation.
  bench::LoadPoint point = bench::MeasureOpenLoop(
      sim, sessions, num_shards * kPerShardIops, /*read_fraction=*/1.0,
      /*sectors=*/8);

  // Worst per-shard p95 across every driver's scatter-gather extents:
  // the SLO must hold on each shard, not just in aggregate.
  *worst_shard_p95_us = 0.0;
  for (int s = 0; s < num_shards; ++s) {
    sim::Histogram merged;
    for (const Driver& d : drivers) {
      merged.Merge(d.session->shard_latency(s));
    }
    *worst_shard_p95_us = std::max(
        *worst_shard_p95_us, merged.Percentile(0.95) / 1e3);
  }

  flash_cluster.control_plane().UnregisterTenant(tenant);
  return point.achieved_iops;
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::bench::Banner(
      "Figure 6d - server scaling (striped multi-server cluster)",
      "aggregate IOPS scales near-linearly; per-shard p95 within SLO");
  std::printf("%8s %16s %14s %18s %10s\n", "servers", "achieved_iops",
              "scaling_x", "worst_shard_p95_us", "slo_ok");

  double base_iops = 0.0;
  double ratio_at_4 = 0.0;
  bool slo_held = true;
  for (int n : {1, 2, 4}) {
    double worst_p95_us = 0.0;
    const double iops = reflex::RunPoint(n, &worst_p95_us);
    if (n == 1) base_iops = iops;
    const double ratio = iops / base_iops;
    if (n == 4) ratio_at_4 = ratio;
    const bool ok = worst_p95_us <= reflex::kSloP95 / 1e3;
    slo_held = slo_held && ok;
    std::printf("%8d %16.0f %14.2f %18.1f %10s\n", n, iops, ratio,
                worst_p95_us, ok ? "yes" : "NO");
  }

  std::printf(
      "\nCheck: 4-server aggregate read IOPS >= 3.5x the 1-server\n"
      "cluster (measured %.2fx) with every shard's p95 within the\n"
      "500us SLO (%s). Shards are shared-nothing, so the only\n"
      "cross-server coupling is tenant admission.\n",
      ratio_at_4, slo_held ? "held" : "VIOLATED");
  return ratio_at_4 >= 3.5 && slo_held ? 0 : 1;
}
