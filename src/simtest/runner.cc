#include "simtest/runner.h"

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/cluster_control_plane.h"
#include "cluster/flash_cluster.h"
#include "cluster/migration.h"
#include "flash/calibration.h"
#include "net/network.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace reflex::simtest {
namespace {

using client::IoResult;

constexpr sim::TimeNs kDeadline = sim::Seconds(30);
constexpr sim::TimeNs kPollStep = sim::Micros(50);

/**
 * One tenant's closed-loop driver: exactly one outstanding op. Its
 * payload buffer is reused by the next op as soon as the op resolves
 * (the IoSession buffer contract): a request that outlives its op --
 * a zombie write, a late read duplicate -- must never touch it again,
 * and the oracle (or ASan, when a reuse reallocates) catches one that
 * does.
 */
struct TenantDriver {
  const TenantSpec* spec = nullptr;
  std::unique_ptr<cluster::ClusterSession> session;
  sim::Rng rng;
  int64_t issued = 0;
  int64_t resolved = 0;

  // In-flight op state.
  bool busy = false;
  bool is_read = false;
  uint64_t version = 0;
  uint64_t lba = 0;
  uint32_t sectors = 0;
  std::vector<uint8_t> buffer;
  sim::Future<IoResult> future;
  /** Manual fan-out path (mutations): per-sub-write futures. */
  std::vector<sim::Future<IoResult>> extent_futures;

  /** kServeStaleReplica probe: after the planted write "succeeds",
   * the skipped replica is read directly and oracle-checked against
   * the extent's logical LBA. */
  bool probe_pending = false;
  bool probe_inflight = false;
  cluster::ReplicaTarget probe_target;
  uint64_t probe_lba = 0;
  uint32_t probe_sectors = 0;
  std::vector<uint8_t> probe_buffer;
  sim::Future<IoResult> probe_future;

  TenantDriver(const TenantSpec* s, uint64_t seed, int index)
      : spec(s), rng(seed, "simtest.tenant." + std::to_string(index)) {}
};

}  // namespace

const char* MutationName(Mutation m) {
  switch (m) {
    case Mutation::kNone:
      return "none";
    case Mutation::kSkipOneSubWrite:
      return "skip_one_sub_write";
    case Mutation::kForgeTokens:
      return "forge_tokens";
    case Mutation::kServeStaleReplica:
      return "serve_stale_replica";
    case Mutation::kDropForwardedWrite:
      return "drop_forwarded_write";
    case Mutation::kServePremigrationRange:
      return "serve_premigration_range";
  }
  return "none";
}

Mutation MutationFromName(const std::string& name) {
  if (name == "skip_one_sub_write") return Mutation::kSkipOneSubWrite;
  if (name == "forge_tokens") return Mutation::kForgeTokens;
  if (name == "serve_stale_replica") return Mutation::kServeStaleReplica;
  if (name == "drop_forwarded_write") return Mutation::kDropForwardedWrite;
  if (name == "serve_premigration_range") {
    return Mutation::kServePremigrationRange;
  }
  return Mutation::kNone;
}

RunReport RunScenario(const ScenarioSpec& spec_in, Mutation mutation,
                      int64_t max_ops) {
  ScenarioSpec spec = spec_in;
  if (mutation == Mutation::kForgeTokens) spec.enforce_qos = true;
  if (mutation == Mutation::kServeStaleReplica) {
    // The planted bug needs a replica to skip, hosted on a shard other
    // than the primary.
    spec.num_shards = std::max(spec.num_shards, 2);
    spec.replication = std::max(spec.replication, 2);
  }
  const bool migration_canary = mutation == Mutation::kDropForwardedWrite ||
                                mutation == Mutation::kServePremigrationRange;
  if (migration_canary) {
    // The canary drives its own deterministic write/migrate/read
    // sequence against stripe 0 (on shard 0), so the scenario is
    // pinned: no competing workload over the probe range, no faults
    // that could abort the migration, no replica that could mask the
    // missing copy.
    spec.num_shards = std::max(spec.num_shards, 2);
    spec.replication = 1;
    spec.steering = cluster::SteeringPolicy::kPrimaryOnly;
    spec.migrate = true;
    spec.migrate_source = 0;
    spec.migrate_target = 1;
    spec.migrate_first_stripe = 0;
    spec.migrate_stripe_count = 4;
    spec.autoscale = false;
    spec.kill_replica = false;
    spec.probabilities.clear();
    spec.windows.clear();
    for (TenantSpec& t : spec.tenants) t.ops = 0;
  }

  sim::Simulator sim;
  net::Network net(sim);

  cluster::FlashClusterOptions options;
  options.num_shards = spec.num_shards;
  options.calibration = flash::CannedCalibrationA();
  options.server.qos.enforce = spec.enforce_qos;
  options.server.qos.policy = spec.policy;
  options.shard_map.stripe_sectors = spec.stripe_sectors;
  options.shard_map.replication = spec.replication;
  // Reserve landing slots only when this scenario can migrate: slot
  // reservation shrinks the logical volume, and seeds without
  // migration must keep their exact pre-migration capacity and map.
  const bool wants_migration =
      (spec.migrate || spec.autoscale) && spec.num_shards >= 2;
  if (wants_migration) options.shard_map.migration_slots = 64;
  options.seed = spec.seed;
  cluster::FlashCluster cluster(sim, net, options);

  sim::FaultPlan plan(sim, spec.seed ^ 0xFA5EEDULL);
  net.SetFaultPlan(&plan);
  for (int i = 0; i < cluster.num_shards(); ++i) {
    cluster.device(i).SetFaultPlan(&plan);
    cluster.server(i).SetFaultPlan(&plan);
  }
  for (const FaultProbSpec& p : spec.probabilities) {
    plan.SetProbability(p.kind, p.probability);
  }
  for (const FaultWindowSpec& w : spec.windows) {
    plan.ScheduleWindow(w.kind, w.start, w.duration);
  }
  // Kill one replica mid-run: the shard machine's link flaps, so every
  // send through it is dropped for the window. Only armed when the
  // effective replication leaves a survivor for every stripe --
  // otherwise the window would just stall the workload.
  if (spec.kill_replica &&
      std::min(spec.replication, spec.num_shards) > 1) {
    const int kill_shard = spec.kill_shard % spec.num_shards;
    plan.ScheduleWindow(
        sim::FaultKind::kNetLinkFlap, spec.kill_start, spec.kill_duration,
        static_cast<uint64_t>(cluster.machine(kill_shard)->id()));
  }

  net::Machine* client_machine = net.AddMachine("simtest-client");
  cluster::ClusterClient::Options copts;
  copts.steering = spec.steering;
  copts.client.retry.request_timeout = sim::Millis(2);
  copts.client.retry.max_retries = 5;
  copts.client.retry.backoff_base = sim::Micros(100);
  copts.client.retry.reconnect_after_timeouts = 2;
  cluster::ClusterClient client(cluster, client_machine, copts);

  std::vector<std::unique_ptr<TenantDriver>> drivers;
  for (size_t i = 0; i < spec.tenants.size(); ++i) {
    const TenantSpec& t = spec.tenants[i];
    auto driver =
        std::make_unique<TenantDriver>(&t, spec.seed, static_cast<int>(i));
    if (t.latency_critical) {
      core::SloSpec slo;
      slo.iops = t.slo_iops;
      slo.read_fraction = t.slo_read_fraction;
      slo.latency = t.slo_latency;
      driver->session =
          client.OpenSession(slo, core::TenantClass::kLatencyCritical);
    }
    if (driver->session == nullptr) {
      // Inadmissible LC SLO (or BE by construction): run best-effort.
      // Deterministic: admission depends only on the spec.
      driver->session = client.OpenSession(core::SloSpec{},
                                           core::TenantClass::kBestEffort);
    }
    drivers.push_back(std::move(driver));
  }

  // Live-migration machinery, only for scenarios that can move data:
  // everything else runs the exact event sequence it always did.
  std::unique_ptr<cluster::MigrationCoordinator> coordinator;
  const bool do_migrate = wants_migration && spec.migrate &&
                          cluster.shard_map().num_stripes() > 0;
  const bool do_autoscale = wants_migration && spec.autoscale;
  if (do_migrate || do_autoscale) {
    cluster::MigrationCoordinator::Options mopts;
    mopts.mutate_drop_forwarded_write =
        mutation == Mutation::kDropForwardedWrite;
    mopts.mutate_serve_premigration_range =
        mutation == Mutation::kServePremigrationRange;
    coordinator = std::make_unique<cluster::MigrationCoordinator>(
        cluster, net, mopts);
  }
  if (do_autoscale) {
    cluster::ClusterControlPlane::AutoscalerOptions aopts;
    aopts.period = sim::Millis(2);
    aopts.hot_first_stripe = 0;
    aopts.hot_stripes =
        std::min<uint64_t>(32, cluster.shard_map().num_stripes());
    cluster.control_plane().StartAutoscaler(*coordinator, aopts);
  }

  ConsistencyOracle oracle;
  const int64_t budget =
      max_ops >= 0 ? std::min(max_ops, spec.TotalOps()) : spec.TotalOps();
  int64_t total_issued = 0;
  bool skip_mutation_pending = mutation == Mutation::kSkipOneSubWrite;
  bool stale_mutation_pending = mutation == Mutation::kServeStaleReplica;
  bool tokens_forged = false;

  auto issue_for = [&](int index) {
    TenantDriver& d = *drivers[index];
    const TenantSpec& t = *d.spec;
    d.is_read = d.rng.NextBernoulli(t.read_fraction);
    d.sectors =
        1 + static_cast<uint32_t>(d.rng.NextBounded(t.max_io_sectors));
    d.lba = t.lba_base + d.rng.NextBounded(t.lba_span - d.sectors + 1);
    d.buffer.assign(static_cast<size_t>(d.sectors) * core::kSectorBytes, 0);
    d.extent_futures.clear();
    d.busy = true;
    ++d.issued;
    ++total_issued;

    if (d.is_read) {
      d.future = d.session->Read(d.lba, d.sectors, d.buffer.data());
      return;
    }
    d.version = oracle.BeginWrite(index, d.lba, d.sectors, sim.Now());
    ConsistencyOracle::StampPayload(d.buffer.data(), d.version, d.lba,
                                    d.sectors);
    if (skip_mutation_pending) {
      cluster::ShardSplit split;
      cluster.shard_map().Split(d.lba, d.sectors, &split);
      if (split.size() >= 2) {
        // Planted bug: issue every extent except the last (to all of
        // its replica placements, so the skipped *extent* is the only
        // defect), then report the write as fully successful.
        skip_mutation_pending = false;
        for (size_t ei = 0; ei + 1 < split.size(); ++ei) {
          const cluster::ShardExtent& e = split[ei];
          for (const cluster::ReplicaTarget& target : split.Targets(e)) {
            d.extent_futures.push_back(
                d.session->shard_session(target.shard_index)
                    .Write(target.shard_lba, e.sectors,
                           d.buffer.data() +
                               static_cast<size_t>(e.buffer_offset_sectors) *
                                   core::kSectorBytes));
          }
        }
        return;
      }
    }
    if (stale_mutation_pending) {
      cluster::ShardSplit split;
      cluster.shard_map().Split(d.lba, d.sectors, &split);
      if (!split.empty() && split.replication() > 1) {
        // Planted bug: write every placement except the first extent's
        // last replica, report full success, and remember the skipped
        // replica for a direct probe read once the write resolves.
        stale_mutation_pending = false;
        for (size_t ei = 0; ei < split.size(); ++ei) {
          const cluster::ShardExtent& e = split[ei];
          const std::span<const cluster::ReplicaTarget> targets =
              split.Targets(e);
          for (size_t ti = 0; ti < targets.size(); ++ti) {
            if (ei == 0 && ti + 1 == targets.size()) continue;  // skipped
            d.extent_futures.push_back(
                d.session->shard_session(targets[ti].shard_index)
                    .Write(targets[ti].shard_lba, e.sectors,
                           d.buffer.data() +
                               static_cast<size_t>(e.buffer_offset_sectors) *
                                   core::kSectorBytes));
          }
        }
        d.probe_pending = true;
        d.probe_target = split.Targets(split[0]).back();
        d.probe_lba = d.lba;  // extent 0 starts at the logical LBA
        d.probe_sectors = split[0].sectors;
        return;
      }
    }
    d.future = d.session->Write(d.lba, d.sectors, d.buffer.data());
  };

  auto complete_op = [&](TenantDriver& d, const IoResult& result) {
    d.busy = false;
    ++d.resolved;
    if (d.is_read) {
      oracle.EndRead(d.lba, d.sectors, d.buffer.data(), result);
    } else {
      oracle.EndWrite(d.version, result);
    }
  };

  // Reads the replica skipped by kServeStaleReplica, bypassing
  // steering: whatever that shard returns is oracle-checked against
  // the logical LBA the planted write claimed to have committed.
  auto start_probe = [&](TenantDriver& d) {
    d.probe_pending = false;
    d.probe_inflight = true;
    d.busy = true;
    d.probe_buffer.assign(
        static_cast<size_t>(d.probe_sectors) * core::kSectorBytes, 0);
    d.probe_future =
        d.session->shard_session(d.probe_target.shard_index)
            .Read(d.probe_target.shard_lba, d.probe_sectors,
                  d.probe_buffer.data());
  };

  // Scheduled migration: clamp the drawn endpoints to the realized
  // topology (source != target) and race it against the workload and
  // fault plan from migrate_start on.
  bool migrate_started = false;
  sim::Future<bool> migrate_future;
  auto start_migration = [&]() {
    migrate_started = true;
    const uint64_t stripes = cluster.shard_map().num_stripes();
    const int src = spec.migrate_source % cluster.num_shards();
    int dst = spec.migrate_target % cluster.num_shards();
    if (dst == src) dst = (src + 1) % cluster.num_shards();
    migrate_future =
        coordinator->MigrateRange(src, dst, spec.migrate_first_stripe % stripes,
                                  spec.migrate_stripe_count);
  };

  // Migration-canary probe (see the Mutation docs): write v1 to stripe
  // 0, migrate it -- v2 is written at the coordinator's before-cutover
  // point (kDropForwardedWrite) or stale-mapped after the cutover
  // (kServePremigrationRange) -- then read stripe 0 back and let the
  // oracle judge which version survived.
  int canary_stage = migration_canary ? 1 : 0;
  uint64_t canary_version = 0;
  const uint32_t canary_sectors = spec.stripe_sectors;
  const size_t canary_bytes =
      static_cast<size_t>(canary_sectors) * core::kSectorBytes;
  // One buffer for the probe's own ops, one for the hook's write,
  // which can be in flight beside them.
  std::vector<uint8_t> canary_buffer;
  std::vector<uint8_t> canary_hook_buffer;
  sim::Future<IoResult> canary_future;
  sim::Future<IoResult> canary_hook_future;
  bool canary_hook_pending = false;
  auto canary_stamped_buffer = [&](std::vector<uint8_t>& buf) {
    buf.assign(canary_bytes, 0);
    canary_version = oracle.BeginWrite(0, 0, canary_sectors, sim.Now());
    ConsistencyOracle::StampPayload(buf.data(), canary_version, 0,
                                    canary_sectors);
    return buf.data();
  };

  while (sim.Now() < kDeadline) {
    bool idle = true;
    for (size_t i = 0; i < drivers.size(); ++i) {
      TenantDriver& d = *drivers[i];
      if (d.busy) {
        if (d.probe_inflight) {
          if (d.probe_future.Ready()) {
            oracle.EndRead(d.probe_lba, d.probe_sectors,
                           d.probe_buffer.data(), d.probe_future.Get());
            d.probe_inflight = false;
            d.busy = false;
          }
        } else if (!d.extent_futures.empty()) {
          bool all_ready = true;
          for (const auto& f : d.extent_futures) all_ready &= f.Ready();
          if (all_ready) {
            IoResult combined;
            combined.issue_time = d.extent_futures.front().Get().issue_time;
            for (const auto& f : d.extent_futures) {
              const IoResult& r = f.Get();
              combined.issue_time =
                  std::min(combined.issue_time, r.issue_time);
              combined.complete_time =
                  std::max(combined.complete_time, r.complete_time);
              if (combined.ok() && !r.ok()) combined.status = r.status;
            }
            complete_op(d, combined);
            if (d.probe_pending) start_probe(d);
          }
        } else if (d.future.Ready()) {
          complete_op(d, d.future.Get());
        }
      }
      if (!d.busy && d.issued < d.spec->ops && total_issued < budget) {
        issue_for(static_cast<int>(i));
      }
      if (d.busy) idle = false;
    }
    if (mutation == Mutation::kForgeTokens && !tokens_forged &&
        total_issued * 2 >= budget) {
      // Planted bug: tokens appear out of thin air, bypassing the
      // generation ledger.
      tokens_forged = true;
      cluster.server(0).shared().global_bucket.Donate(50.0);
    }

    if (do_migrate && !migration_canary && !migrate_started &&
        !coordinator->busy() &&
        (sim.Now() >= spec.migrate_start ||
         (idle && total_issued >= budget))) {
      // Fire at the drawn time; if the workload drains first, fire
      // anyway so every migrating seed exercises copy-and-cutover.
      // Deferred (next poll tick) while an autoscaler rebalance batch
      // holds the coordinator -- one batch runs at a time.
      start_migration();
    }

    if (canary_stage == 1) {
      canary_future = drivers[0]->session->Write(
          0, canary_sectors, canary_stamped_buffer(canary_buffer));
      canary_stage = 2;
    } else if (canary_stage == 2 && canary_future.Ready()) {
      oracle.EndWrite(canary_version, canary_future.Get());
      if (mutation == Mutation::kDropForwardedWrite) {
        coordinator->before_cutover = [&]() {
          canary_hook_future = drivers[0]->session->Write(
              0, canary_sectors, canary_stamped_buffer(canary_hook_buffer));
          canary_hook_pending = true;
          return canary_hook_future;
        };
      }
      start_migration();
      canary_stage = 3;
    } else if (canary_stage == 3) {
      if (canary_hook_pending && canary_hook_future.Ready()) {
        oracle.EndWrite(canary_version, canary_hook_future.Get());
        canary_hook_pending = false;
      }
      if (migrate_future.Ready() && !canary_hook_pending) {
        if (mutation == Mutation::kServePremigrationRange) {
          // The client's local map still predates the cutover, so this
          // write carries the stale epoch. Correct servers bounce it
          // into a refresh-and-retry; the mutated one absorbs it.
          canary_future = drivers[0]->session->Write(
              0, canary_sectors, canary_stamped_buffer(canary_buffer));
          canary_stage = 4;
        } else {
          canary_stage = 5;
        }
      }
    } else if (canary_stage == 4 && canary_future.Ready()) {
      oracle.EndWrite(canary_version, canary_future.Get());
      canary_stage = 5;
    } else if (canary_stage == 5) {
      client.RefreshMap();
      canary_buffer.assign(canary_bytes, 0);
      canary_future =
          drivers[0]->session->Read(0, canary_sectors, canary_buffer.data());
      canary_stage = 6;
    } else if (canary_stage == 6 && canary_future.Ready()) {
      oracle.EndRead(0, canary_sectors, canary_buffer.data(),
                     canary_future.Get());
      canary_stage = 0;
    }
    if (canary_stage != 0) idle = false;

    const bool migration_quiet =
        !migrate_started || migrate_future.Ready();
    if (idle && total_issued >= budget && migration_quiet) break;
    sim.RunUntil(sim.Now() + kPollStep);
  }

  if (do_autoscale) cluster.control_plane().StopAutoscaler();

  RunReport report;
  report.completed = total_issued >= budget;
  for (const auto& d : drivers) {
    report.ops_executed += d->resolved;
    if (d->busy) report.completed = false;
  }
  if (migration_canary && canary_stage != 0) report.completed = false;
  if (coordinator != nullptr) {
    report.migrations_started = coordinator->stats().migrations_started;
    report.migrations_committed = coordinator->stats().migrations_committed;
    report.migrations_aborted = coordinator->stats().migrations_aborted;
  }
  if (do_autoscale) {
    report.autoscaler_rebalances =
        cluster.control_plane().autoscaler_stats().rebalances;
  }
  for (const auto& d : drivers) {
    report.wrong_shard_retries += d->session->wrong_shard_retries();
  }
  report.reads_checked = oracle.reads_checked();
  report.writes_tracked = oracle.writes_tracked();
  report.data_violations = oracle.violations();
  report.invariant_violations = CheckClusterInvariants(cluster);
  return report;
}

}  // namespace reflex::simtest
