// Elastic cluster under a diurnal load curve (DESIGN.md section 17):
// SLO-aware autoscaling versus a static fleet.
//
// A 24-hour day is compressed to 20ms per hour. One latency-critical
// tenant offers a semi-open Poisson load that follows the classic
// diurnal cosine (trough at 4am, peak at 4pm) over the first 64 pages
// of a 64-stripe hot range. Two modes run the identical trace:
//
//  - static:    all 4 shards serve the hot range all day (the paper's
//               fixed provisioning -- peak capacity held 24/7);
//  - autoscale: the control plane's scaling loop watches per-shard
//               token utilization and queue-depth hints and resizes
//               the active server set, repacking the hot range with
//               live copy-then-forward migrations (hitless: every
//               resize races the offered load).
//
// Emits BENCH_autoscale.json: per mode the hourly timeline of servers
// in use, offered load and binned read p95, plus the day-average
// server count and scaling-event counts. Pass: no failed I/O in
// either mode, every hourly p95 within the 500us SLO, the autoscaler
// both grew and shrank, and its day-average fleet is meaningfully
// smaller than the static one.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "client/load_generator.h"
#include "cluster/cluster_client.h"
#include "cluster/migration.h"

namespace reflex {
namespace {

constexpr sim::TimeNs kSloP95 = sim::Micros(500);
constexpr sim::TimeNs kHour = sim::Millis(20);  // 24h day in 480ms
constexpr int kHours = 24;
constexpr int kNumShards = 4;
constexpr uint64_t kHotStripes = 64;
// The load's address range: 64 4KB pages at the start of the hot range.
constexpr uint64_t kHotSectors = 512;
constexpr double kTroughIops = 12000.0;
constexpr double kPeakIops = 280000.0;
constexpr double kReadFraction = 0.95;
constexpr double kTroughHour = 4.0;  // quietest at 4am, busiest at 4pm

/** Offered IOPS at simulated time `now` on the diurnal cosine. */
double RateAt(sim::TimeNs now) {
  const double hour = static_cast<double>(now) / kHour;
  const double f =
      0.5 * (1.0 - std::cos(2.0 * M_PI * (hour - kTroughHour) / 24.0));
  return kTroughIops + f * (kPeakIops - kTroughIops);
}

struct HourBin {
  double offered_iops = 0.0;
  double avg_servers = 0.0;
  double p95_us = 0.0;
  int64_t reads = 0;
  int64_t failed = 0;
};

struct ModeResult {
  std::string mode;
  double avg_servers = 0.0;
  double p95_us = 0.0;
  double p999_us = 0.0;
  int64_t ops = 0;
  int64_t reads_failed = 0;
  int64_t writes_failed = 0;
  int64_t grow_events = 0;
  int64_t shrink_events = 0;
  int64_t rebalances = 0;
  int64_t rebalances_failed = 0;
  int64_t migrations_committed = 0;
  int64_t migrations_aborted = 0;
  int hours_over_slo = 0;
  std::vector<HourBin> hours;
  bool ok = false;
};

ModeResult RunMode(bool autoscale) {
  sim::Simulator sim;
  net::Network net(sim);

  cluster::FlashClusterOptions options;
  options.num_shards = kNumShards;
  options.calibration = bench::CalibrationA();
  // Landing slots for the repack: packing all 64 hot stripes onto one
  // shard parks 48 overrides there.
  options.shard_map.migration_slots = 64;
  // Same burst-allowance rationale as fig5_qos/fig6d: runs of 10-token
  // writes must not queue the tenant's reads.
  options.server.qos.neg_limit = -150.0;
  cluster::FlashCluster flash_cluster(sim, net, options);
  cluster::MigrationCoordinator coordinator(flash_cluster, net);

  // Admission covers the 4pm peak with open-loop headroom; capacity is
  // reserved all day in both modes -- the autoscaler saves *servers*,
  // not reservations.
  core::SloSpec slo;
  slo.iops = static_cast<uint32_t>(kPeakIops * 1.3);
  slo.read_fraction = kReadFraction;
  slo.latency = kSloP95;
  cluster::AdmitResult admit;
  cluster::ClusterTenant tenant = flash_cluster.control_plane().RegisterTenant(
      slo, core::TenantClass::kLatencyCritical, &admit);
  if (!tenant.valid()) {
    std::fprintf(stderr, "diurnal tenant inadmissible: %s (shard %d)\n",
                 cluster::AdmitKindName(admit.kind), admit.shard);
    std::abort();
  }

  cluster::ClusterClient::Options copts;
  copts.client.stack = net::StackCosts::IxDataplane();
  copts.client.num_connections = 4;
  copts.client.seed = 4242;
  copts.client.retry.request_timeout = sim::Millis(2);
  copts.client.retry.max_retries = 5;
  copts.client.retry.backoff_base = sim::Micros(100);
  copts.client.retry.reconnect_after_timeouts = 2;
  cluster::ClusterClient client(flash_cluster, net.AddMachine("client-0"),
                                copts);
  auto session = client.AttachSession(tenant);
  if (session == nullptr) {
    std::fprintf(stderr, "cluster session refused\n");
    std::abort();
  }

  if (autoscale) {
    cluster::ClusterControlPlane::AutoscalerOptions aopts;
    aopts.period = sim::Millis(2);
    // Thresholds in token-utilization terms (capacity 547k tokens/s,
    // ~2 tokens per op at this size and read mix): grow past ~33k
    // ops/s on any active shard, shrink below ~22k ops/s on all of
    // them (damped by shrink_persistence against flapping in the
    // band right after a grow).
    aopts.high_utilization = 0.12;
    aopts.low_utilization = 0.08;
    aopts.hot_first_stripe = 0;
    aopts.hot_stripes = kHotStripes;
    flash_cluster.control_plane().StartAutoscaler(coordinator, aopts);
  }

  // Sample the active-set size once per simulated millisecond into the
  // current hour's accumulator (a static fleet reads as a flat N).
  std::vector<double> server_sum(kHours, 0.0);
  std::vector<int> server_samples(kHours, 0);
  const sim::TimeNs day_end = static_cast<sim::TimeNs>(kHours) * kHour;
  std::function<void()> sample = [&] {
    const int h = static_cast<int>(sim.Now() / kHour);
    if (h >= 0 && h < kHours) {
      server_sum[h] += autoscale
                           ? flash_cluster.control_plane().active_shards()
                           : kNumShards;
      server_samples[h] += 1;
    }
    if (sim.Now() + sim::Millis(1) < day_end) {
      sim.ScheduleAfter(sim::Millis(1), sample);
    }
  };
  sim.ScheduleAfter(sim::Millis(1), sample);

  // Semi-open Poisson load on the diurnal rate, uniform over the hot
  // range, binned hourly by completion time. Arrivals join a
  // client-side FIFO served by at most 128 concurrent requests (a real
  // front-end's connection pool). Latency is measured from *arrival*,
  // so client-side queueing still shows up in the SLO check -- but the
  // server never sees more than 128 requests from this tenant at
  // once. A fully open loop turns any latency excursion past the
  // retransmit timeout into a 6x arrival multiplier that outruns the
  // tenant's reserved token rate forever: a metastable congestion
  // collapse no amount of scaling recovers from, and one no
  // flow-controlled client exhibits.
  client::LoadGenSpec spec;
  spec.read_fraction = kReadFraction;
  spec.rate_at = RateAt;
  spec.queue_depth = 128;
  spec.lba_span_sectors = kHotSectors;
  spec.bin_width = kHour;
  spec.seed = 90210;
  client::LoadGenerator load(sim, *session, spec);
  load.Run(0, day_end);
  bench::Await(sim, load.Done(), day_end + sim::Seconds(5));
  if (autoscale) flash_cluster.control_plane().StopAutoscaler();

  ModeResult result;
  result.mode = autoscale ? "autoscale" : "static";
  result.ops = load.ops_in_window();
  result.reads_failed = load.read_errors();
  result.writes_failed = load.write_errors();
  result.p95_us = load.read_latency().Percentile(0.95) / 1e3;
  result.p999_us = load.read_latency().Percentile(0.999) / 1e3;
  const auto& stats = flash_cluster.control_plane().autoscaler_stats();
  result.grow_events = stats.grow_events;
  result.shrink_events = stats.shrink_events;
  result.rebalances = stats.rebalances;
  result.rebalances_failed = stats.rebalances_failed;
  result.migrations_committed = coordinator.stats().migrations_committed;
  result.migrations_aborted = coordinator.stats().migrations_aborted;

  double server_total = 0.0;
  int samples_total = 0;
  for (int h = 0; h < kHours; ++h) {
    HourBin bin;
    bin.offered_iops = RateAt(h * kHour + kHour / 2);
    bin.avg_servers = server_samples[h] > 0
                          ? server_sum[h] / server_samples[h]
                          : kNumShards;
    const client::LoadGenerator::Bin& hour =
        load.bins()[static_cast<size_t>(h)];
    bin.reads = hour.reads.Count();
    bin.failed = hour.errors;
    bin.p95_us = bin.reads > 0 ? hour.reads.Percentile(0.95) / 1e3 : 0.0;
    if (bin.reads > 0 && bin.p95_us > sim::ToSeconds(kSloP95) * 1e6) {
      ++result.hours_over_slo;
    }
    server_total += server_sum[h];
    samples_total += server_samples[h];
    result.hours.push_back(bin);
  }
  result.avg_servers =
      samples_total > 0 ? server_total / samples_total : kNumShards;

  result.ok = result.reads_failed == 0 && result.writes_failed == 0 &&
              result.hours_over_slo == 0;
  if (autoscale) {
    // The whole point: scale down through the night, back up for the
    // day, and bank a meaningfully smaller average fleet -- hitless.
    result.ok = result.ok && result.grow_events >= 1 &&
                result.shrink_events >= 1 &&
                result.avg_servers <= 0.8 * kNumShards;
  }
  return result;
}

}  // namespace
}  // namespace reflex

int main() {
  using reflex::HourBin;
  using reflex::ModeResult;
  reflex::bench::Banner(
      "Elastic cluster - SLO-aware autoscaling over a diurnal day",
      "live migration resizes the active set; static fleets hold peak "
      "capacity 24/7");

  std::vector<ModeResult> results;
  bool all_ok = true;
  for (bool autoscale : {false, true}) {
    ModeResult res = reflex::RunMode(autoscale);
    std::printf(
        "\nmode=%s avg_servers=%.2f p95=%.1fus p999=%.1fus ops=%lld "
        "failed=%lld/%lld grow=%lld shrink=%lld rebalances=%lld "
        "(failed %lld) committed=%lld aborted=%lld hours_over_slo=%d %s\n",
        res.mode.c_str(), res.avg_servers, res.p95_us, res.p999_us,
        static_cast<long long>(res.ops),
        static_cast<long long>(res.reads_failed),
        static_cast<long long>(res.writes_failed),
        static_cast<long long>(res.grow_events),
        static_cast<long long>(res.shrink_events),
        static_cast<long long>(res.rebalances),
        static_cast<long long>(res.rebalances_failed),
        static_cast<long long>(res.migrations_committed),
        static_cast<long long>(res.migrations_aborted), res.hours_over_slo,
        res.ok ? "ok" : "NOT-OK");
    std::printf("%5s %13s %9s %8s %7s %7s\n", "hour", "offered_iops",
                "servers", "p95_us", "reads", "failed");
    for (int h = 0; h < reflex::kHours; ++h) {
      const HourBin& bin = res.hours[static_cast<size_t>(h)];
      std::printf("%5d %13.0f %9.2f %8.1f %7lld %7lld\n", h,
                  bin.offered_iops, bin.avg_servers, bin.p95_us,
                  static_cast<long long>(bin.reads),
                  static_cast<long long>(bin.failed));
    }
    all_ok = all_ok && res.ok;
    results.push_back(std::move(res));
  }

  std::string doc = "{\"bench\":\"fig_diurnal_autoscale\",";
  doc += "\"slo_p95_us\":500,\"hours\":24,\"hour_ms\":20,\"shards\":4,";
  doc += "\"modes\":[";
  char buf[256];
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& r = results[i];
    std::snprintf(
        buf, sizeof buf,
        "%s{\"mode\":\"%s\",\"avg_servers\":%.2f,\"p95_us\":%.1f,"
        "\"p999_us\":%.1f,\"ops\":%lld,\"reads_failed\":%lld,"
        "\"writes_failed\":%lld,\"grow_events\":%lld,"
        "\"shrink_events\":%lld,\"rebalances\":%lld,"
        "\"hours_over_slo\":%d,\"ok\":%s,\"hourly\":[",
        i == 0 ? "" : ",", r.mode.c_str(), r.avg_servers, r.p95_us,
        r.p999_us, static_cast<long long>(r.ops),
        static_cast<long long>(r.reads_failed),
        static_cast<long long>(r.writes_failed),
        static_cast<long long>(r.grow_events),
        static_cast<long long>(r.shrink_events),
        static_cast<long long>(r.rebalances), r.hours_over_slo,
        r.ok ? "true" : "false");
    doc += buf;
    for (size_t h = 0; h < r.hours.size(); ++h) {
      const HourBin& bin = r.hours[h];
      std::snprintf(buf, sizeof buf,
                    "%s{\"hour\":%zu,\"offered_iops\":%.0f,"
                    "\"servers\":%.2f,\"p95_us\":%.1f,\"reads\":%lld}",
                    h == 0 ? "" : ",", h, bin.offered_iops,
                    bin.avg_servers, bin.p95_us,
                    static_cast<long long>(bin.reads));
      doc += buf;
    }
    doc += "]}";
  }
  doc += "]}\n";
  reflex::obs::WriteFile("BENCH_autoscale.json", doc);
  std::printf("\nwrote BENCH_autoscale.json\n");

  std::printf(
      "Check: both modes finish the compressed day with zero failed\n"
      "I/Os and every hourly read p95 within the 500us SLO; the\n"
      "autoscaler grows and shrinks the active set and averages well\n"
      "under the static fleet of 4.\n");
  return all_ok ? 0 : 1;
}
