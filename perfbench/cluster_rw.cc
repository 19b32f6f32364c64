// cluster_rw: four shards, two replicas per stripe, power-of-two read
// steering. Four latency-critical tenants with Zipfian tenant and stripe
// skew (as in fig6d_replication) send open-loop Poisson 4 KB I/O, 80%
// reads, fault-free. Exercises cluster fan-out, replica write fan-out,
// queue-depth steering, fabric traffic and flash read/write
// interference; each shard serves only a few tenants and there is no
// page cache.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/cluster_control_plane.h"
#include "cluster/flash_cluster.h"
#include "flash/calibration.h"
#include "open_loop.h"
#include "workloads.h"

namespace perfbench {

namespace cluster = reflex::cluster;

void RunClusterRw(const RunOptions& opts, Report& report) {
  const int64_t setup_start = CpuNanos();
  constexpr int kShards = 4;
  constexpr int kReplication = 2;
  constexpr int kTenants = 4;
  constexpr double kReadFraction = 0.8;
  constexpr double kPerShardIops = 40000.0;
  constexpr uint64_t kStampsPerTenant = 64;
  const sim::TimeNs warmup = 100'000'000;
  const sim::TimeNs window = opts.smoke ? 200'000'000 : 2'000'000'000;

  sim::Simulator sim;
  net::Network net(sim);
  cluster::FlashClusterOptions options;
  options.num_shards = kShards;
  options.calibration = flash::CannedCalibrationA();
  options.shard_map.replication = kReplication;
  options.server.qos.neg_limit = -150.0;
  options.seed = opts.seed;
  cluster::FlashCluster flash_cluster(sim, net, options);

  const uint32_t stripe = flash_cluster.shard_map().options().stripe_sectors;
  const uint64_t stripes = flash_cluster.shard_map().capacity_sectors() / stripe;
  // The top 2 * kTenants * kStampsPerTenant stripes hold the stamped
  // blocks; odd ones straddle a stripe boundary, so their requests are
  // split across two shards and reassembled.
  const uint64_t stamp_base = stripes - 2 * kTenants * kStampsPerTenant - 1;
  const uint64_t span = stamp_base * stripe;

  double weight_sum = 0.0;
  for (int k = 0; k < kTenants; ++k) weight_sum += 1.0 / (k + 1);
  const double total_iops = kShards * kPerShardIops;

  RegisterTimer registrations;
  CallStats submit_calls;
  std::vector<std::unique_ptr<cluster::ClusterClient>> clients;
  std::vector<std::unique_ptr<cluster::ClusterSession>> sessions;
  std::vector<std::unique_ptr<TimedSession>> timed;
  std::vector<std::unique_ptr<StampedBlocks>> stamps;
  std::vector<std::unique_ptr<OpenLoopTenant>> tenants;
  std::vector<ClassTotals> lc(kTenants);
  ClassTotals be;
  for (int k = 0; k < kTenants; ++k) {
    const double rate = total_iops * (1.0 / (k + 1)) / weight_sum;
    // Reservation headroom over the offered rate; every write spends
    // write tokens on R shards, so the registered mix over-weights
    // writes by the replication factor (as in fig6d_replication).
    core::SloSpec slo;
    slo.iops = static_cast<uint32_t>(rate * 1.3);
    slo.read_fraction = 1.0 - (1.0 - kReadFraction) * kReplication;
    slo.latency = kSlo;
    cluster::AdmitResult admit;
    const int64_t t0 = CpuNanos();
    cluster::ClusterTenant tenant = flash_cluster.control_plane().RegisterTenant(
        slo, core::TenantClass::kLatencyCritical, &admit);
    registrations.ns.push_back(CpuNanos() - t0);
    World::AbortUnless(tenant.valid(), "cluster admission refused");

    cluster::ClusterClient::Options copts;
    copts.client.stack = net::StackCosts::IxDataplane();
    copts.client.num_connections = 2;
    copts.client.seed = opts.seed * 100 + 1000 + k;
    copts.client.trace_sample_every = opts.trace ? 1 : 0;
    copts.client.retry.request_timeout = 20'000'000;
    copts.client.retry.max_retries = 5;
    copts.steering = cluster::SteeringPolicy::kPowerOfTwo;
    clients.push_back(std::make_unique<cluster::ClusterClient>(
        flash_cluster, net.AddMachine("client-" + std::to_string(k)), copts));
    sessions.push_back(clients.back()->AttachSession(tenant));
    World::AbortUnless(sessions.back() != nullptr, "cluster session refused");

    std::vector<uint64_t> lbas;
    for (uint64_t j = 0; j < kStampsPerTenant; ++j) {
      const uint64_t s = stamp_base + 2 * (k * kStampsPerTenant + j);
      lbas.push_back(j % 2 == 0 ? s * stripe : (s + 1) * stripe - 4);
    }
    stamps.push_back(std::make_unique<StampedBlocks>(
        lbas, opts.seed * 31 + k, opts.plant && k == 0));
    WriteInitialStamps(sim, *sessions.back(), *stamps.back());

    client::IoSession* session = sessions.back().get();
    if (opts.trace) {
      timed.push_back(
          std::make_unique<TimedSession>(*session, true, &submit_calls));
      session = timed.back().get();
    }
    OpenLoopSpec ol;
    ol.iops = rate;
    ol.read_fraction = kReadFraction;
    ol.span_sectors = span;
    ol.zipf_stripe_sectors = stripe;
    ol.zipf_salt = 1 + static_cast<uint64_t>(k) * 7919 + opts.seed;
    ol.stamps = stamps.back().get();
    ol.stamp_fraction = 0.02;
    tenants.push_back(std::make_unique<OpenLoopTenant>(
        sim, *session, ol, opts.seed * 1000003 + k, &lc[k]));
  }
  const int64_t setup_ns = CpuNanos() - setup_start;

  std::vector<core::ReflexServer*> servers;
  for (int s = 0; s < kShards; ++s) servers.push_back(&flash_cluster.server(s));
  ServerReadings before;
  if (opts.trace) before = ReadServers(servers);
  const sim::TimeNs window_start = sim.Now() + warmup;
  const sim::TimeNs end = window_start + window;
  const int64_t events_before = sim.EventsProcessed();
  const sim::TimeNs sim_before = sim.Now();

  const int64_t run_start = CpuNanos();
  const DrainResult drain = RunOpenLoop(sim, tenants, window_start, end);
  const int64_t run_ns = CpuNanos() - run_start;

  report.Host("setup_s", static_cast<double>(setup_ns) / 1e9, "s");
  report.Host("run_s", static_cast<double>(run_ns) / 1e9, "s");
  report.Host("peak_rss_mb", PeakRssMb(), "MB");
  ReportOpenLoop(report, lc, be, drain, window_start, end, total_iops);

  int64_t verified = 0;
  int64_t mismatches = 0;
  for (const auto& s : stamps) {
    verified += s->verified_reads();
    mismatches += s->mismatches();
  }
  report.Check(verified > 0, "stamped blocks were read back");
  report.Check(mismatches == 0,
               "every stamped read returned the last acknowledged write");
  report.Check(report.failed == 0, "no request failed");
  report.Note("stamped reads verified: " + std::to_string(verified));

  if (!opts.trace) return;
  LayerMetrics layers;
  int64_t requests = 0;
  for (const auto& t : tenants) requests += t->issued();
  const ServerReadings after = Diff(ReadServers(servers), before);
  layers.FromServers(after, requests, sim.EventsProcessed() - events_before,
                     run_ns, static_cast<int64_t>(sim.PeakPendingEvents()),
                     sim.Now() - sim_before);
  registrations.Emit(layers);
  layers.Set("client.submit_host_ns", submit_calls.MeanNs());

  int64_t timeouts = 0;
  int64_t retries = 0;
  for (const auto& c : clients) {
    for (int s = 0; s < kShards; ++s) {
      timeouts += c->shard_client(s).fault_stats().timeouts;
      retries += c->shard_client(s).fault_stats().retries;
    }
  }
  layers.Set("client.timeouts", static_cast<double>(timeouts));
  layers.Set("client.retries", static_cast<double>(retries));

  int64_t issued = 0;
  int64_t split = 0;
  int64_t failovers = 0;
  int64_t wrong_shard = 0;
  std::vector<int64_t> served(kShards, 0);
  double shard_p95_max = 0.0;
  for (int s = 0; s < kShards; ++s) {
    sim::Histogram merged;
    for (const auto& session : sessions) {
      served[s] += session->shard_reads_served(s);
      merged.Merge(session->shard_latency(s));
    }
    shard_p95_max = std::max(shard_p95_max, merged.Percentile(0.95) / 1e3);
  }
  for (const auto& session : sessions) {
    issued += session->requests_issued();
    split += session->requests_split();
    failovers += session->read_failovers();
    wrong_shard += session->wrong_shard_retries();
  }
  const auto [min_served, max_served] =
      std::minmax_element(served.begin(), served.end());
  // A 4 KB request spans at most two stripes.
  layers.Set("cluster.extents_per_req",
             issued > 0 ? 1.0 + static_cast<double>(split) / issued : 0.0);
  int64_t writes = 0;
  for (const auto& t : tenants) writes += t->writes_issued();
  layers.Set("cluster.device_writes_per_write",
             writes > 0 ? static_cast<double>(after.flash_writes) / writes
                        : 0.0);
  layers.Set("cluster.read_imbalance",
             *min_served > 0 ? static_cast<double>(*max_served) / *min_served
                             : 0.0);
  layers.Set("cluster.read_failovers", static_cast<double>(failovers));
  layers.Set("cluster.wrong_shard_retries", static_cast<double>(wrong_shard));
  layers.Set("cluster.shard_p95_us_max", shard_p95_max);
  layers.Emit(report);
}

}  // namespace perfbench
