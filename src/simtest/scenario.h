#ifndef REFLEX_SIMTEST_SCENARIO_H_
#define REFLEX_SIMTEST_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster_client.h"
#include "core/qos_policy.h"
#include "sim/fault.h"
#include "sim/time.h"

namespace reflex::simtest {

/**
 * One fuzzed tenant: class, SLO (LC only), workload mix and a private
 * LBA range. Ranges are disjoint across tenants so the consistency
 * oracle never has to reason about cross-tenant write conflicts --
 * any write observed outside the writer's range is itself a bug.
 */
struct TenantSpec {
  bool latency_critical = false;

  // SLO, used only when latency_critical.
  uint32_t slo_iops = 0;
  double slo_read_fraction = 1.0;
  sim::TimeNs slo_latency = 0;

  // Workload shape.
  double read_fraction = 0.5;
  uint32_t max_io_sectors = 8;
  int64_t ops = 100;

  // Private LBA window [lba_base, lba_base + lba_span).
  uint64_t lba_base = 0;
  uint64_t lba_span = 0;
};

/** Steady-state fault probability, active for the whole run. */
struct FaultProbSpec {
  sim::FaultKind kind = sim::FaultKind::kNetDrop;
  double probability = 0.0;
};

/** A scheduled fault window [start, start + duration). */
struct FaultWindowSpec {
  sim::FaultKind kind = sim::FaultKind::kNetDrop;
  sim::TimeNs start = 0;
  sim::TimeNs duration = 0;
};

/**
 * A complete stress scenario, derived deterministically from one
 * 64-bit seed: cluster topology (shard count, stripe width), QoS
 * mode, tenant mix and fault schedule. Replaying a failure needs
 * only {seed, op budget} -- everything else regenerates.
 */
struct ScenarioSpec {
  uint64_t seed = 0;

  // Topology.
  int num_shards = 1;
  uint32_t stripe_sectors = 8;

  bool enforce_qos = true;

  /** Enforcement algorithm (meaningful only when enforce_qos). The
   * fuzzer draws it so the invariant probes exercise every policy. */
  core::QosPolicyKind policy = core::QosPolicyKind::kTokenBucket;

  // Replication and read steering. Drawn at the END of the seed
  // expansion so every pre-replication field of a given seed is
  // unchanged. The shard map clamps replication to num_shards.
  int replication = 1;
  cluster::SteeringPolicy steering = cluster::SteeringPolicy::kPrimaryOnly;

  /** Kill one replica mid-run (drawn always, applied by the runner
   * only when the clamped replication and shard count allow a
   * survivor): shard `kill_shard`'s machine link flaps for
   * [kill_start, kill_start + kill_duration). */
  bool kill_replica = false;
  int kill_shard = 0;
  sim::TimeNs kill_start = 0;
  sim::TimeNs kill_duration = 0;

  // Live migration and autoscaling. Drawn after the replication
  // fields (same stream-alignment rule: every draw is unconditional,
  // so seeds predating these fields expand to identical scenarios).
  // The runner applies them only when num_shards >= 2; migrations are
  // raced against the fault plan and the regular workload.
  /** Schedule one MigrateRange at migrate_start. */
  bool migrate = false;
  int migrate_source = 0;
  int migrate_target = 0;
  uint64_t migrate_first_stripe = 0;
  uint64_t migrate_stripe_count = 1;
  sim::TimeNs migrate_start = 0;
  /** Run the SLO-aware autoscaler for the whole scenario. */
  bool autoscale = false;

  std::vector<TenantSpec> tenants;
  std::vector<FaultProbSpec> probabilities;
  std::vector<FaultWindowSpec> windows;

  int64_t TotalOps() const {
    int64_t total = 0;
    for (const TenantSpec& t : tenants) total += t.ops;
    return total;
  }
};

/**
 * Expands `seed` into a scenario. Pure function of the seed: the same
 * seed always yields the same spec, on any host.
 */
ScenarioSpec GenerateScenario(uint64_t seed);

/** Serializes a spec for the repro artifact (human-readable JSON). */
std::string ScenarioToJson(const ScenarioSpec& spec);

}  // namespace reflex::simtest

#endif  // REFLEX_SIMTEST_SCENARIO_H_
