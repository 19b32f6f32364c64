#include "simtest/scenario.h"

#include <sstream>

#include "sim/random.h"

namespace reflex::simtest {
namespace {

/** Tenants get disjoint 4K-sector windows; 4 tenants * 24-sector I/Os
 * stay far below the smallest possible cluster volume. */
constexpr uint64_t kTenantSpanSectors = 4096;

}  // namespace

ScenarioSpec GenerateScenario(uint64_t seed) {
  // A named stream: scenario expansion never shares draws with any
  // component inside the simulation itself.
  sim::Rng rng(seed, "simtest.scenario");

  ScenarioSpec spec;
  spec.seed = seed;
  spec.num_shards = 1 + static_cast<int>(rng.NextBounded(4));
  // This draw once chose a placement rule. It is kept and discarded so
  // that every later draw of every seed stays where it was.
  (void)rng.NextBernoulli(0.5);
  spec.stripe_sectors = 4u << rng.NextBounded(3);  // 4, 8 or 16
  spec.enforce_qos = rng.NextBernoulli(0.8);
  // Drawn even when enforce_qos is false so the stream consumption --
  // and with it every later draw -- is the same for both QoS modes.
  spec.policy = static_cast<core::QosPolicyKind>(rng.NextBounded(3));

  const int num_tenants = 1 + static_cast<int>(rng.NextBounded(4));
  int num_lc = 0;
  for (int i = 0; i < num_tenants; ++i) {
    TenantSpec t;
    // At most two LC tenants with modest reservations, so the
    // scenario is (almost) always admissible; the runner downgrades
    // any rejected LC tenant to best-effort deterministically.
    t.latency_critical = num_lc < 2 && rng.NextBernoulli(0.5);
    if (t.latency_critical) {
      ++num_lc;
      t.slo_iops = 5000 + static_cast<uint32_t>(rng.NextBounded(15000));
      t.slo_read_fraction = 0.5 + 0.5 * rng.NextDouble();
      t.slo_latency =
          sim::Micros(500 + 250 * static_cast<int64_t>(rng.NextBounded(7)));
    }
    t.read_fraction = 0.1 + 0.8 * rng.NextDouble();
    t.max_io_sectors = 1 + static_cast<uint32_t>(rng.NextBounded(24));
    t.ops = 60 + static_cast<int64_t>(rng.NextBounded(140));
    t.lba_base = static_cast<uint64_t>(i) * kTenantSpanSectors;
    t.lba_span = kTenantSpanSectors;
    spec.tenants.push_back(t);
  }

  // Fault schedule: each hazard is armed independently, with rates
  // low enough that retries keep the workload progressing.
  if (rng.NextBernoulli(0.4)) {
    spec.probabilities.push_back(
        {sim::FaultKind::kNetDrop, 0.02 + 0.08 * rng.NextDouble()});
  }
  if (rng.NextBernoulli(0.3)) {
    spec.probabilities.push_back(
        {sim::FaultKind::kFlashLatencySpike, 0.02 + 0.08 * rng.NextDouble()});
  }
  auto window_at = [&rng](sim::FaultKind kind) {
    FaultWindowSpec w;
    w.kind = kind;
    w.start = sim::Millis(1 + static_cast<int64_t>(rng.NextBounded(5)));
    w.duration = sim::Millis(1 + static_cast<int64_t>(rng.NextBounded(3)));
    return w;
  };
  if (rng.NextBernoulli(0.3)) {
    spec.windows.push_back(window_at(sim::FaultKind::kServerDeviceError));
  }
  if (rng.NextBernoulli(0.3)) {
    spec.windows.push_back(window_at(sim::FaultKind::kFlashBrownout));
  }
  if (rng.NextBernoulli(0.25)) {
    spec.windows.push_back(window_at(sim::FaultKind::kNetReset));
  }
  if (rng.NextBernoulli(0.2)) {
    spec.windows.push_back(window_at(sim::FaultKind::kFlashReadError));
  }
  if (rng.NextBernoulli(0.2)) {
    spec.windows.push_back(window_at(sim::FaultKind::kFlashWriteError));
  }

  // Replication draws come last so the expansion above is unchanged
  // for every seed that predates them. Every draw is unconditional:
  // kill parameters are consumed even when kill_replica is false (or
  // the topology ends up unreplicated) to keep the stream aligned.
  spec.replication = 1 + static_cast<int>(rng.NextBounded(3));
  spec.steering =
      static_cast<cluster::SteeringPolicy>(rng.NextBounded(3));
  spec.kill_replica = rng.NextBernoulli(0.25);
  spec.kill_shard =
      static_cast<int>(rng.NextBounded(4)) % spec.num_shards;
  spec.kill_start =
      sim::Millis(1 + static_cast<int64_t>(rng.NextBounded(5)));
  spec.kill_duration =
      sim::Millis(1 + static_cast<int64_t>(rng.NextBounded(3)));

  // Migration draws come after the replication draws, unconditional
  // for the same stream-alignment reason. The runner clamps shard
  // indices and stripe ranges to the realized topology.
  spec.migrate = rng.NextBernoulli(0.35);
  spec.migrate_source = static_cast<int>(rng.NextBounded(4));
  spec.migrate_target = static_cast<int>(rng.NextBounded(4));
  spec.migrate_first_stripe = rng.NextBounded(64);
  spec.migrate_stripe_count = 1 + rng.NextBounded(16);
  spec.migrate_start =
      sim::Millis(1 + static_cast<int64_t>(rng.NextBounded(6)));
  spec.autoscale = rng.NextBernoulli(0.25);
  return spec;
}

std::string ScenarioToJson(const ScenarioSpec& spec) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"seed\": " << spec.seed << ",\n";
  out << "  \"num_shards\": " << spec.num_shards << ",\n";
  out << "  \"stripe_sectors\": " << spec.stripe_sectors << ",\n";
  out << "  \"enforce_qos\": " << (spec.enforce_qos ? "true" : "false")
      << ",\n";
  out << "  \"qos_policy\": \"" << core::QosPolicyKindName(spec.policy)
      << "\",\n";
  out << "  \"replication\": " << spec.replication << ",\n";
  out << "  \"steering\": \""
      << cluster::SteeringPolicyName(spec.steering) << "\",\n";
  out << "  \"kill_replica\": " << (spec.kill_replica ? "true" : "false")
      << ",\n";
  out << "  \"kill_shard\": " << spec.kill_shard << ",\n";
  out << "  \"kill_start_us\": " << spec.kill_start / 1000 << ",\n";
  out << "  \"kill_duration_us\": " << spec.kill_duration / 1000 << ",\n";
  out << "  \"migrate\": " << (spec.migrate ? "true" : "false") << ",\n";
  out << "  \"migrate_source\": " << spec.migrate_source << ",\n";
  out << "  \"migrate_target\": " << spec.migrate_target << ",\n";
  out << "  \"migrate_first_stripe\": " << spec.migrate_first_stripe
      << ",\n";
  out << "  \"migrate_stripe_count\": " << spec.migrate_stripe_count
      << ",\n";
  out << "  \"migrate_start_us\": " << spec.migrate_start / 1000 << ",\n";
  out << "  \"autoscale\": " << (spec.autoscale ? "true" : "false")
      << ",\n";
  out << "  \"tenants\": [\n";
  for (size_t i = 0; i < spec.tenants.size(); ++i) {
    const TenantSpec& t = spec.tenants[i];
    out << "    {\"class\": \"" << (t.latency_critical ? "LC" : "BE")
        << "\"";
    if (t.latency_critical) {
      out << ", \"slo_iops\": " << t.slo_iops
          << ", \"slo_read_fraction\": " << t.slo_read_fraction
          << ", \"slo_latency_us\": " << t.slo_latency / 1000;
    }
    out << ", \"read_fraction\": " << t.read_fraction
        << ", \"max_io_sectors\": " << t.max_io_sectors
        << ", \"ops\": " << t.ops << ", \"lba_base\": " << t.lba_base
        << ", \"lba_span\": " << t.lba_span << "}"
        << (i + 1 < spec.tenants.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"fault_probabilities\": [\n";
  for (size_t i = 0; i < spec.probabilities.size(); ++i) {
    const FaultProbSpec& p = spec.probabilities[i];
    out << "    {\"kind\": \"" << sim::FaultKindName(p.kind)
        << "\", \"probability\": " << p.probability << "}"
        << (i + 1 < spec.probabilities.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"fault_windows\": [\n";
  for (size_t i = 0; i < spec.windows.size(); ++i) {
    const FaultWindowSpec& w = spec.windows[i];
    out << "    {\"kind\": \"" << sim::FaultKindName(w.kind)
        << "\", \"start_us\": " << w.start / 1000
        << ", \"duration_us\": " << w.duration / 1000 << "}"
        << (i + 1 < spec.windows.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}";
  return out.str();
}

}  // namespace reflex::simtest
