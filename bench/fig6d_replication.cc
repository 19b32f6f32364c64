// Replicated rack-scale front end: read tail latency and failover
// re-convergence on an R-way replicated striped cluster (the
// replication + power-of-d steering extension of the paper's
// multi-server deployment, section 5).
//
// Each (N shards, R replicas) config runs four latency-critical
// tenants with Zipfian skew across tenants (offered rate of tenant k
// proportional to 1/(k+1)) and Zipfian page popularity within each
// tenant. Reads are steered power-of-two over piggybacked per-shard
// queue-depth hints; writes fan out to every replica. Mid-run one
// replica's machine link is cut for 50ms: writes keep committing on
// the survivors (marking the dead replica dirty), reads steer away
// after the first timeouts, and the binned read p95 must re-converge
// to the 500us SLO before the window ends. A read steered to the dead
// replica fails over at its first client timeout, so a killed config's
// p99.9 must stay under two request timeouts. The dead shard is
// reinstated (operator resync, out of band) 20ms after the link
// returns.
//
// Emits BENCH_replication.json: per config the steady p95/p99.9, the
// re-convergence time after the kill, and the steering-imbalance
// ratio (max/min reads served per shard).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "client/load_generator.h"
#include "cluster/cluster_client.h"
#include "sim/fault.h"

namespace reflex {
namespace {

constexpr sim::TimeNs kSloP95 = sim::Micros(500);
constexpr sim::TimeNs kRequestTimeout = sim::Millis(2);
/** Killed-config read p99.9 bar: one timeout, then the live copy. */
constexpr sim::TimeNs kKilledP999Bar = 2 * kRequestTimeout;
constexpr sim::TimeNs kWarmup = sim::Millis(50);
constexpr sim::TimeNs kMeasure = sim::Millis(400);
constexpr sim::TimeNs kKillOffset = sim::Millis(100);  // into measurement
constexpr sim::TimeNs kKillDuration = sim::Millis(50);
constexpr sim::TimeNs kBin = sim::Millis(10);
constexpr int kNumBins = static_cast<int>(kMeasure / kBin);
constexpr int kNumTenants = 4;
constexpr double kPerShardIops = 50000.0;
constexpr double kReadFraction = 0.99;
constexpr double kZipfTheta = 0.99;

struct ConfigResult {
  int shards = 0;
  int replication = 0;
  double achieved_iops = 0.0;
  double p95_us = 0.0;
  double p999_us = 0.0;
  double recovery_ms = 0.0;   // binned p95 back within SLO, from kill
  double imbalance = 0.0;     // max/min reads served across shards
  int64_t reads_failed = 0;
  int64_t writes_failed = 0;
  bool killed = false;
  bool ok = false;
};

struct Tenant {
  std::unique_ptr<cluster::ClusterClient> client;
  std::unique_ptr<cluster::ClusterSession> session;
  std::unique_ptr<client::LoadGenerator> load;
};

ConfigResult RunConfig(int num_shards, int replication) {
  sim::Simulator sim;
  net::Network net(sim);

  cluster::FlashClusterOptions options;
  options.num_shards = num_shards;
  options.calibration = flash::CannedCalibrationA();
  options.shard_map.replication = replication;
  // Mixed LC load: the default burst allowance cannot absorb runs of
  // 10-token writes without queueing the tenant's reads behind them
  // (same knob and rationale as fig5_qos).
  options.server.qos.neg_limit = -150.0;
  cluster::FlashCluster flash_cluster(sim, net, options);

  // Zipfian tenant skew: tenant k's offered rate is proportional to
  // 1/(k+1); together they offer kPerShardIops per shard.
  double weight_sum = 0.0;
  for (int k = 0; k < kNumTenants; ++k) weight_sum += 1.0 / (k + 1);
  const double total_iops = num_shards * kPerShardIops;

  std::vector<Tenant> tenants;
  std::vector<double> rates;
  for (int k = 0; k < kNumTenants; ++k) {
    const double rate = total_iops * (1.0 / (k + 1)) / weight_sum;
    rates.push_back(rate);

    // The reservation needs headroom over the offered rate (an
    // open-loop tenant offered exactly its token reservation queues
    // without bound) and must cover the write fan-out: every write
    // spends write tokens on R shards, not one, so the registered
    // mix over-weights writes by the replication factor.
    //
    // Replicated configs additionally provision for failover: when a
    // replica dies, its read load redistributes across the N-1
    // survivors, so each shard must reserve N/(N-1) of its steady
    // share or the survivors run a token deficit for the whole kill
    // window (queues blow past the client timeout and retransmits
    // amplify the overload).
    const bool plans_kill = std::min(replication, num_shards) > 1;
    const double failover_headroom =
        plans_kill ? static_cast<double>(num_shards) / (num_shards - 1) : 1.0;
    core::SloSpec slo;
    slo.iops = static_cast<uint32_t>(rate * 1.3 * failover_headroom);
    slo.read_fraction = 1.0 - (1.0 - kReadFraction) * replication;
    slo.latency = kSloP95;
    cluster::AdmitResult admit;
    cluster::ClusterTenant tenant =
        flash_cluster.control_plane().RegisterTenant(
            slo, core::TenantClass::kLatencyCritical, &admit);
    if (!tenant.valid()) {
      std::fprintf(stderr,
                   "tenant %d inadmissible at N=%d R=%d: %s (shard %d)\n",
                   k, num_shards, replication,
                   cluster::AdmitKindName(admit.kind), admit.shard);
      std::abort();
    }

    Tenant t;
    cluster::ClusterClient::Options copts;
    copts.client.stack = net::StackCosts::IxDataplane();
    copts.client.num_connections = 2;
    copts.client.seed = 1000 + k;
    copts.client.retry.request_timeout = kRequestTimeout;
    copts.client.retry.max_retries = 5;
    copts.client.retry.backoff_base = sim::Micros(100);
    copts.client.retry.reconnect_after_timeouts = 2;
    copts.steering = cluster::SteeringPolicy::kPowerOfTwo;
    t.client = std::make_unique<cluster::ClusterClient>(
        flash_cluster, net.AddMachine("client-" + std::to_string(k)),
        copts);
    t.session = t.client->AttachSession(tenant);
    if (t.session == nullptr) {
      std::fprintf(stderr, "cluster session refused\n");
      std::abort();
    }
    // Open-loop Poisson with Zipfian page popularity. Each tenant's
    // generator scrambles the ranks with its own seed, so every tenant
    // has its own hot set: the skew stresses the steering without
    // four tenants piling onto the same few flash dies.
    client::LoadGenSpec spec;
    spec.read_fraction = kReadFraction;
    spec.offered_iops = rate;
    spec.zipf_theta = kZipfTheta;
    spec.bin_width = kBin;
    spec.seed = 7000 + k;
    t.load = std::make_unique<client::LoadGenerator>(sim, *t.session, spec);
    tenants.push_back(std::move(t));
  }

  // Kill one replica mid-run: its machine link drops for the window,
  // so in-flight and new sub-I/Os to it are lost until it returns.
  ConfigResult result;
  result.shards = num_shards;
  result.replication = replication;
  result.killed = std::min(replication, num_shards) > 1;
  const int kill_shard = num_shards - 1;
  const sim::TimeNs kill_start = kWarmup + kKillOffset;
  sim::FaultPlan plan(sim, 77);
  net.SetFaultPlan(&plan);
  if (result.killed) {
    plan.ScheduleWindow(
        sim::FaultKind::kNetLinkFlap, kill_start, kKillDuration,
        static_cast<uint64_t>(flash_cluster.machine(kill_shard)->id()));
    // Reinstate once the link is back and the operator has resynced
    // the missed writes out of band; until then the dirty mark keeps
    // reads off the stale copy.
    sim.ScheduleAfter(kill_start + kKillDuration + sim::Millis(20),
                      [&tenants, kill_shard] {
                        for (Tenant& t : tenants) {
                          t.client->ReinstateShard(kill_shard);
                        }
                      });
  }

  const sim::TimeNs end = kWarmup + kMeasure;
  for (Tenant& t : tenants) t.load->Run(kWarmup, end);
  for (Tenant& t : tenants) {
    bench::Await(sim, t.load->Done(), end + sim::Seconds(5));
  }

  // Aggregate: overall read tail, per-bin p95 timeline, per-shard
  // reads served.
  sim::Histogram all_reads;
  int64_t ops = 0;
  for (const Tenant& t : tenants) {
    all_reads.Merge(t.load->read_latency());
    ops += t.load->ops_in_window();
    result.reads_failed += t.load->read_errors();
    result.writes_failed += t.load->write_errors();
  }
  result.achieved_iops = static_cast<double>(ops) / sim::ToSeconds(kMeasure);
  result.p95_us = all_reads.Percentile(0.95) / 1e3;
  result.p999_us = all_reads.Percentile(0.999) / 1e3;

  const int kill_bin = static_cast<int>(kKillOffset / kBin);
  int last_over = -1;
  for (int b = 0; b < kNumBins; ++b) {
    sim::Histogram merged;
    for (const Tenant& t : tenants) merged.Merge(t.load->bins()[b].reads);
    const bool over =
        merged.Count() > 0 && merged.Percentile(0.95) > kSloP95;
    if (over && b >= kill_bin) last_over = b;
  }
  result.recovery_ms =
      result.killed && last_over >= 0
          ? sim::ToSeconds((last_over + 1) * kBin - kKillOffset) * 1e3
          : 0.0;

  int64_t served_min = 0;
  int64_t served_max = 0;
  for (int s = 0; s < num_shards; ++s) {
    int64_t served = 0;
    for (const Tenant& t : tenants) served += t.session->shard_reads_served(s);
    served_min = s == 0 ? served : std::min(served_min, served);
    served_max = std::max(served_max, served);
  }
  result.imbalance =
      served_min > 0 ? static_cast<double>(served_max) / served_min : 1e9;

  // Pass: no failed I/O, steady tail within SLO, and -- when a
  // replica was killed -- the binned p95 back within SLO before the
  // measurement ends, the read p99.9 under two request timeouts, and
  // steering spreading reads across shards.
  const double window_ms =
      sim::ToSeconds(kMeasure - kKillOffset) * 1e3;
  result.ok = result.reads_failed == 0 && result.writes_failed == 0 &&
              result.recovery_ms < window_ms &&
              (!result.killed ||
               (result.imbalance <= 3.0 &&
                result.p999_us < kKilledP999Bar / 1e3));
  return result;
}

}  // namespace
}  // namespace reflex

int main() {
  using reflex::ConfigResult;
  reflex::bench::Banner(
      "Figure 6d (replicated) - R-way replication with power-of-two "
      "steering",
      "reads steer around a killed replica; p95 re-converges to SLO");
  std::printf("%7s %5s %14s %8s %9s %12s %10s %7s\n", "shards", "repl",
              "achieved_iops", "p95_us", "p999_us", "recovery_ms",
              "imbalance", "ok");

  std::vector<ConfigResult> results;
  bool all_ok = true;
  // (4,1) is the unreplicated baseline (no kill window: with a single
  // copy a dead shard simply loses its data, as pre-replication).
  for (auto [n, r] : {std::pair<int, int>{4, 1}, {2, 2}, {4, 2}, {4, 3}}) {
    const ConfigResult res = reflex::RunConfig(n, r);
    std::printf("%7d %5d %14.0f %8.1f %9.1f %12.1f %10.2f %7s\n",
                res.shards, res.replication, res.achieved_iops, res.p95_us,
                res.p999_us, res.recovery_ms, res.imbalance,
                res.ok ? "yes" : "NO");
    all_ok = all_ok && res.ok;
    results.push_back(res);
  }

  std::string doc = "{\"bench\":\"fig6d_replication\",\"slo_p95_us\":500,";
  doc += "\"kill_ms\":" + std::to_string(
             static_cast<long long>(reflex::kKillDuration / 1000000));
  doc += ",\"configs\":[";
  char buf[256];
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"shards\":%d,\"replication\":%d,\"achieved_iops\":%.0f,"
        "\"p95_us\":%.1f,\"p999_us\":%.1f,\"recovery_ms\":%.1f,"
        "\"imbalance\":%.2f,\"reads_failed\":%lld,\"writes_failed\":%lld,"
        "\"killed\":%s,\"ok\":%s}",
        i == 0 ? "" : ",", r.shards, r.replication, r.achieved_iops,
        r.p95_us, r.p999_us, r.recovery_ms, r.imbalance,
        static_cast<long long>(r.reads_failed),
        static_cast<long long>(r.writes_failed),
        r.killed ? "true" : "false", r.ok ? "true" : "false");
    doc += buf;
  }
  doc += "]}\n";
  reflex::obs::WriteFile("BENCH_replication.json", doc);
  std::printf("\nwrote BENCH_replication.json\n");

  std::printf(
      "Check: every config completes with zero failed I/Os; killed-\n"
      "replica configs re-converge to the 500us p95 SLO before the\n"
      "window ends, keep the read p99.9 under %.0fus (two request\n"
      "timeouts) and steer reads within a 3x shard imbalance.\n",
      reflex::kKilledP999Bar / 1e3);
  return all_ok ? 0 : 1;
}
