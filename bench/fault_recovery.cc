// Fault-injection recovery bench: drives a latency-critical tenant at
// a fixed rate through three fault scenarios -- flash media errors,
// a whole-device brownout, and a connection reset -- and reports the
// LC read p95 per 20ms bucket so the SLO reconvergence after each
// fault clears is visible, plus the retry/timeout/error counters the
// fault path maintains in the obs registry.
//
// Faults are injected through sim::FaultPlan (deterministic, seeded);
// the client runs with its RetryPolicy enabled, so reads ride through
// transient errors, writes fail fast with kUnknownOutcome, and reset
// connections are reopened after consecutive timeouts.
//
// Expected: each scenario's p95 is inside the 1ms SLO before the fault
// window [200ms, 300ms), degrades or goes dark during it, and is back
// inside the SLO in the final 100ms. No REFLEX_PANIC anywhere: every
// fault surfaces as a counted, retried or failed request.

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "bench/common.h"
#include "sim/fault.h"

namespace reflex {
namespace {

using sim::FaultKind;
using sim::Micros;
using sim::Millis;

constexpr sim::TimeNs kRunEnd = Millis(600);
constexpr sim::TimeNs kFaultStart = Millis(200);
constexpr sim::TimeNs kFaultDuration = Millis(100);
constexpr sim::TimeNs kBucket = Millis(20);
constexpr sim::TimeNs kSloP95 = Millis(1);
constexpr double kLcOfferedIops = 50000.0;

using Bins = std::vector<client::LoadGenerator::Bin>;

client::ReflexClient::Options RetryingClient(uint64_t seed) {
  client::ReflexClient::Options copts;
  copts.num_connections = 8;
  copts.seed = seed;
  // Timeout above the worst transient queueing a fault can cause
  // (brownout backlog peaks around 20 ms): retries must be triggered
  // by lost or refused requests, never by a slow-but-alive server.
  // A timeout below the in-fault latency turns every request into
  // max_retries wire copies, and that amplified load exceeds the LC
  // token reservation forever -- the queue then never drains even
  // after the fault clears.
  copts.retry.request_timeout = Millis(30);
  copts.retry.max_retries = 4;
  copts.retry.backoff_base = Micros(200);
  copts.retry.reconnect_after_timeouts = 2;
  return copts;
}

double RegistryCounter(core::ReflexServer& server, const char* name) {
  return server.metrics().GetCounter(name)->value();
}

/** p95 over the final 100ms of the run (fault cleared at 300ms). */
sim::TimeNs RecoveredP95(const Bins& t) {
  sim::Histogram tail;
  const size_t first = static_cast<size_t>((kRunEnd - Millis(100)) / kBucket);
  for (size_t b = first; b < t.size(); ++b) tail.Merge(t[b].reads);
  return tail.Percentile(0.95);
}

void PrintBins(const Bins& t) {
  std::printf("  %-8s %12s %10s %8s\n", "t_ms", "p95_read_us", "errors",
              "in_slo");
  for (size_t b = 0; b < t.size(); ++b) {
    const int64_t ms = (b * kBucket) / 1000000;
    if (t[b].reads.Count() == 0) {
      std::printf("  %-8lld %12s %10lld %8s\n",
                  static_cast<long long>(ms), "-",
                  static_cast<long long>(t[b].errors), "-");
      continue;
    }
    const sim::TimeNs p95 = t[b].reads.Percentile(0.95);
    std::printf("  %-8lld %12.1f %10lld %8s\n",
                static_cast<long long>(ms), p95 / 1e3,
                static_cast<long long>(t[b].errors),
                p95 <= kSloP95 ? "yes" : "NO");
  }
}

void PrintFaultCounters(bench::BenchWorld& world,
                        const client::ReflexClient& lc_client,
                        sim::FaultPlan& plan) {
  std::printf("  obs counters: client_timeouts=%.0f client_retries=%.0f "
              "client_failures=%.0f\n",
              RegistryCounter(*world.server, "client_timeouts"),
              RegistryCounter(*world.server, "client_retries"),
              RegistryCounter(*world.server, "client_failures"));
  std::printf("  net: dropped=%" PRId64 " resets=%" PRId64
              "  flash: read_err=%" PRId64 " write_err=%" PRId64
              " spikes=%" PRId64 "\n",
              world.net.dropped_messages(), world.net.connection_resets(),
              world.device.stats().read_errors,
              world.device.stats().write_errors,
              world.device.stats().latency_spikes);
  std::printf("  client fault stats: reconnects=%" PRId64
              " stale_responses=%" PRId64 "\n",
              lc_client.fault_stats().reconnects,
              lc_client.fault_stats().stale_responses);
  std::printf("  faults injected:");
  for (int k = 0; k < sim::kNumFaultKinds; ++k) {
    const auto kind = static_cast<FaultKind>(k);
    if (plan.injected(kind) > 0) {
      std::printf(" %s=%" PRId64, sim::FaultKindName(kind),
                  plan.injected(kind));
    }
  }
  std::printf("\n");
}

enum class Scenario { kDeviceError, kBrownout, kConnReset };

const char* ScenarioName(Scenario s) {
  switch (s) {
    case Scenario::kDeviceError: return "device_error";
    case Scenario::kBrownout: return "brownout";
    case Scenario::kConnReset: return "connection_reset";
  }
  return "?";
}

bool RunScenario(Scenario scenario) {
  core::ServerOptions options;
  options.num_threads = 1;
  bench::BenchWorld world(options, /*num_client_machines=*/2);

  sim::FaultPlan plan(world.sim, 77);
  world.device.SetFaultPlan(&plan);
  world.net.SetFaultPlan(&plan);
  world.server->SetFaultPlan(&plan);

  core::ReqStatus status;
  core::Tenant* lc = world.server->RegisterTenant(
      // Reservation well above the 50K offered load: retried reads
      // during an error window cost extra tokens (up to ~2x), and the
      // headroom keeps the amplified demand inside the reservation so
      // the scheduler queue stays bounded.
      {150000, 1.0, kSloP95, 0.95, 4096},
      core::TenantClass::kLatencyCritical, &status);
  if (lc == nullptr) {
    std::fprintf(stderr, "LC tenant inadmissible\n");
    std::abort();
  }
  core::Tenant* be =
      world.server->RegisterTenant({}, core::TenantClass::kBestEffort);

  client::ReflexClient lc_client(world.sim, *world.server,
                                 world.client_machines[0],
                                 RetryingClient(501));
  auto lc_session = lc_client.AttachSession(lc->handle());
  client::ReflexClient be_client(world.sim, *world.server,
                                 world.client_machines[1],
                                 RetryingClient(502));
  auto be_session = be_client.AttachSession(be->handle());

  switch (scenario) {
    case Scenario::kDeviceError:
      // Media errors on a fifth of the dies: reads landing there fail
      // with kDeviceError until the window closes; the client retries
      // them (random LBAs usually re-land on a healthy die).
      for (uint64_t die = 0; die < 16; ++die) {
        plan.ScheduleWindow(FaultKind::kFlashReadError, kFaultStart,
                            kFaultDuration, die);
      }
      break;
    case Scenario::kBrownout:
      // Whole-device slowdown; the control plane sheds BE load for the
      // duration so the LC tenant keeps its reservation.
      plan.set_brownout_slowdown(8.0);
      plan.ScheduleWindow(FaultKind::kFlashBrownout, kFaultStart,
                          kFaultDuration);
      break;
    case Scenario::kConnReset:
      // Every connection the LC client machine transmits on during the
      // window is reset; the library notices via consecutive timeouts
      // and reopens.
      plan.ScheduleWindow(FaultKind::kNetReset, kFaultStart, Millis(1),
                          static_cast<uint64_t>(
                              world.client_machines[0]->id()));
      break;
  }

  // LC: open-loop paced reads. Pacing (not Poisson) keeps every
  // scenario's arrival sequence identical, so timelines are comparable
  // across fault classes.
  client::LoadGenSpec lc_spec;
  lc_spec.offered_iops = kLcOfferedIops;
  lc_spec.poisson_arrivals = false;
  lc_spec.lba_span_sectors = bench::kBenchSpanSectors;
  lc_spec.bin_width = kBucket;
  lc_spec.seed = 17;
  client::LoadGenerator lc_load(world.sim, *lc_session, lc_spec);
  // BE: 4 closed-loop workers at 50% reads: enough to make brownout
  // shedding visible, but intrinsically bounded below the leftover
  // token share so the device runs with latency headroom (a BE pool
  // that soaks the whole cap pins the LC p95 exactly at its SLO by
  // construction).
  client::LoadGenSpec be_spec;
  be_spec.read_fraction = 0.5;
  be_spec.queue_depth = 4;
  be_spec.lba_span_sectors = bench::kBenchSpanSectors;
  be_spec.bin_width = kBucket;
  be_spec.seed = 1000;
  client::LoadGenerator be_load(world.sim, *be_session, be_spec);
  lc_load.Run(0, kRunEnd);
  be_load.Run(0, kRunEnd);
  world.Await(lc_load.Done(), kRunEnd + sim::Seconds(5));
  world.Await(be_load.Done(), kRunEnd + sim::Seconds(5));

  std::printf("Scenario %s (fault window [%lld ms, %lld ms)):\n",
              ScenarioName(scenario),
              static_cast<long long>(kFaultStart / 1000000),
              static_cast<long long>((kFaultStart + kFaultDuration) /
                                     1000000));
  PrintBins(lc_load.bins());

  if (scenario == Scenario::kBrownout) {
    // BE throughput in thirds: nominal / shed / recovered.
    const Bins& per_bucket = be_load.bins();
    const size_t third = per_bucket.size() / 3;
    int64_t phases[3] = {0, 0, 0};
    for (size_t b = 0; b < per_bucket.size(); ++b) {
      phases[b < third ? 0 : (b < 2 * third ? 1 : 2)] +=
          per_bucket[b].completions;
    }
    std::printf("  BE completions: before=%" PRId64 " during=%" PRId64
                " after=%" PRId64 " (shed while browned out)\n",
                phases[0], phases[1], phases[2]);
  }

  PrintFaultCounters(world, lc_client, plan);

  const sim::TimeNs recovered = RecoveredP95(lc_load.bins());
  const bool ok = recovered > 0 && recovered <= kSloP95;
  std::printf("  recovery: p95 over final 100ms = %.1f us (SLO %.0f us) "
              "=> %s\n\n",
              recovered / 1e3, kSloP95 / 1e3,
              ok ? "RECOVERED" : "STILL DEGRADED");
  return ok;
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::bench::Banner(
      "Fault injection & recovery (device errors, brownout, conn reset)",
      "LC p95 returns to SLO after each fault class clears; every fault "
      "is counted, none panics");
  bool all_ok = true;
  all_ok &= reflex::RunScenario(reflex::Scenario::kDeviceError);
  all_ok &= reflex::RunScenario(reflex::Scenario::kBrownout);
  all_ok &= reflex::RunScenario(reflex::Scenario::kConnReset);
  std::printf("Check: all three scenarios end RECOVERED; errors stay\n"
              "confined to the fault window; retries/timeouts explain\n"
              "every lost request.\n");
  return all_ok ? 0 : 1;
}
