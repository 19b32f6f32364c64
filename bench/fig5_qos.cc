// Reproduces Figure 5: tail latency and IOPS for 4 tenants sharing a
// single-threaded ReFlex server, with the QoS scheduler disabled and
// enabled, in two scenarios.
//
// Tenants (as in the paper):
//   A: latency-critical, 120K IOPS @ 100% read, p95 <= 500us
//   B: latency-critical,  70K IOPS @  80% read, p95 <= 500us
//   C: best-effort, 95% read
//   D: best-effort, 25% read
//
// Scenario 1: A and B drive their full reservations. Scenario 2: B
// only drives 45K IOPS, and the BE tenants pick up its unused tokens
// (work conservation through the global token bucket).
//
// Expected: without the scheduler every tenant sees >2ms p95 because
// of write interference; with it, A and B meet both SLOs while C and D
// split the leftover throughput (D lower than C: its writes cost 10x).

#include <cstdio>
#include <vector>

#include "bench/common.h"

namespace reflex {
namespace {

void RunScenario(int scenario, bool sched_enabled) {
  core::ServerOptions options = bench::QosServerOptions();
  options.qos.enforce = sched_enabled;
  bench::BenchWorld world(options);

  // Trace every request: the latency-breakdown table below must
  // reconcile with the generator histograms, so both populations
  // need to be (nearly) the same.
  std::vector<bench::QosTenant> tenants = bench::AddQosTenants(
      world, scenario == 1 ? 70000.0 : 45000.0, /*trace_sample_every=*/1);

  const sim::TimeNs warm = bench::kQosWarmEnd;
  const sim::TimeNs end = bench::kQosEnd;
  // Align the trace population with the measurement window: count
  // only spans issued after warmup, and capture the table at `end`
  // (the generators keep draining past it).
  obs::BreakdownTable window_table;
  world.sim.ScheduleAt(warm, [&world, warm] {
    world.server->tracer().Reset(/*min_issue=*/warm);
  });
  world.sim.ScheduleAt(end, [&world, &window_table] {
    window_table = world.server->tracer().Table();
  });
  bench::RunQosTenants(world, tenants);

  std::printf("Scenario %d, I/O sched %s:\n", scenario,
              sched_enabled ? "ENABLED" : "DISABLED");
  std::printf("  %-14s %12s %12s %10s\n", "tenant", "iops",
              "p95_read_us", "SLO_us");
  for (const bench::QosTenant& t : tenants) {
    std::printf("  %-14s %12.0f %12.1f %10s\n", t.name,
                t.generator->AchievedIops(),
                t.generator->read_latency().Percentile(0.95) / 1e3,
                t.lc() ? "500" : "-");
  }

  // Machine-readable per-stage latency breakdown from the trace spans,
  // reconciled against the independently measured end-to-end mean
  // (merged over all tenants, reads and writes).
  char label[32];
  std::snprintf(label, sizeof(label), "s%d_%s", scenario,
                sched_enabled ? "on" : "off");
  sim::Histogram merged;
  for (const bench::QosTenant& t : tenants) {
    merged.Merge(t.generator->read_latency());
    merged.Merge(t.generator->write_latency());
  }
  bench::DumpBreakdown(*world.server, window_table, "fig5_qos", label);
  bench::CheckBreakdownReconciles(window_table, merged.Mean() / 1e3, label);
  std::printf("\n");
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::bench::Banner(
      "Figure 5 - QoS scheduling and isolation (4 tenants, 1 thread)",
      "LC tenants meet 500us/IOPS SLOs only with the scheduler on");
  reflex::RunScenario(1, false);
  reflex::RunScenario(1, true);
  reflex::RunScenario(2, false);
  reflex::RunScenario(2, true);
  std::printf(
      "Check: sched ON => A ~120K IOPS and B at its offered load, both\n"
      "p95 <= 500us; C > D (writes cost 10x). Scenario 2: C and D gain\n"
      "B's unused tokens. Sched OFF => p95 >> 2ms for everyone.\n");
  return 0;
}
