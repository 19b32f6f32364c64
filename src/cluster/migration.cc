#include "cluster/migration.h"

#include <algorithm>
#include <numeric>

#include "core/slo.h"
#include "sim/logging.h"

namespace reflex::cluster {

namespace {

/** Retries per stripe copy (read + write) before the batch aborts. */
constexpr int kMaxCopyRetries = 3;

/** Shape of the per-shard copy clients. Timeouts must stay enabled so
 * a dead shard aborts the batch instead of parking it forever. */
constexpr sim::TimeNs kCopyTimeout = sim::Millis(2);
constexpr int kCopyClientRetries = 3;
constexpr sim::TimeNs kCopyBackoffBase = sim::Micros(100);

/** Stripe copies in flight at once. Copy traffic runs at best-effort
 * priority, so on a busy source shard a sequential QD-1 stream
 * stretches a rebalance across tens of milliseconds -- exactly when an
 * autoscaler grow most needs it finished. */
constexpr size_t kCopyConcurrency = 8;

/** Dirty-recopy rounds before escalating to drain regardless. */
constexpr int kMaxDirtyRounds = 3;

/** Poll interval while waiting for in-flight writes to quiesce. */
constexpr sim::TimeNs kDrainPollInterval = sim::Micros(20);

/** Drain stall budget; exceeding it aborts the batch. */
constexpr sim::TimeNs kDrainTimeout = sim::Millis(5);

}  // namespace

MigrationCoordinator::MigrationCoordinator(FlashCluster& cluster,
                                           net::Network& net, Options options)
    : cluster_(cluster),
      machine_(net.AddMachine("migrator")),
      options_(options) {
  paths_.resize(static_cast<size_t>(cluster_.num_shards()));
}

MigrationCoordinator::~MigrationCoordinator() {
  // Frames parked mid-await (simulation ended during a migration)
  // would otherwise leak: suspend_never final_suspend means nobody but
  // us can reach them. Workers first -- they reference the barrier in
  // the batch frame and must never outlive it.
  for (auto& [id, handle] : copy_handles_) {
    if (handle) handle.destroy();
  }
  copy_handles_.clear();
  if (batch_active_ && batch_handle_) {
    batch_active_ = false;
    batch_handle_.destroy();
  }
}

sim::Task MigrationCoordinator::CopyWorker(MigrationAssignment a, int gate_id,
                                           uint32_t stripe_sectors,
                                           bool count_recopy,
                                           sim::Barrier* barrier,
                                           bool* any_failed) {
  const uint64_t id = next_copy_id_++;
  co_await sim::SelfHandle(&copy_handles_[id]);
  sim::Simulator& sim = cluster_.sim();
  std::vector<uint8_t> buf(static_cast<size_t>(stripe_sectors) *
                           CopySession(a.from.shard_index)->sector_bytes());
  // Clear the dirty bit before reading: a write admitted during the
  // copy re-dirties the gate and forces another round. A write admitted
  // earlier but still in flight (queued for QoS tokens, or at the
  // flash) may land after this read pins its pages, so while the gate
  // counts one it stays dirty.
  if (core::RangeGate* gate =
          cluster_.server(a.from.shard_index).FindRangeGate(gate_id)) {
    gate->dirty = gate->inflight_writes > 0;
  }
  bool copied = false;
  for (int attempt = 0; attempt <= kMaxCopyRetries && !copied; ++attempt) {
    if (attempt > 0) {
      co_await sim::Delay(sim, kCopyBackoffBase);
    }
    client::IoResult r = co_await CopySession(a.from.shard_index)
                             ->Read(a.from.shard_lba, stripe_sectors,
                                    buf.data());
    ++stats_.copy_ios;
    if (!r.ok()) continue;
    client::IoResult w = co_await CopySession(a.to.shard_index)
                             ->Write(a.to.shard_lba, stripe_sectors,
                                     buf.data());
    ++stats_.copy_ios;
    copied = w.ok();
  }
  if (!copied) {
    *any_failed = true;
  } else if (count_recopy) {
    ++stats_.dirty_recopies;
  }
  copy_handles_.erase(id);
  barrier->Arrive();
}

client::TenantSession* MigrationCoordinator::CopySession(int index) {
  ShardPath& path = paths_[static_cast<size_t>(index)];
  if (path.session == nullptr) {
    client::ReflexClient::Options copts;
    copts.num_connections = 1;
    copts.seed = 0xC0117 + static_cast<uint64_t>(index);
    copts.retry.request_timeout = kCopyTimeout;
    copts.retry.max_retries = kCopyClientRetries;
    copts.retry.backoff_base = kCopyBackoffBase;
    path.client = std::make_unique<client::ReflexClient>(
        cluster_.sim(), cluster_.server(index), machine_, copts);
    // Copy traffic rides a best-effort tenant: it only ever gets spare
    // tokens, so a migration cannot break a co-located LC tenant's SLO.
    core::ReqStatus status = core::ReqStatus::kOk;
    path.session = path.client->OpenSession(
        core::SloSpec(), core::TenantClass::kBestEffort, &status);
    REFLEX_CHECK(path.session != nullptr);
  }
  return path.session.get();
}

sim::Future<bool> MigrationCoordinator::MigrateRange(int source, int target,
                                                     uint64_t first_stripe,
                                                     uint64_t count) {
  return MigrateAssignments(cluster_.mutable_shard_map().PlanRangeMigration(
      source, target, first_stripe, count));
}

sim::Future<bool> MigrationCoordinator::MigrateAssignments(
    std::vector<MigrationAssignment> plan) {
  sim::Promise<bool> done(cluster_.sim());
  auto future = done.GetFuture();
  if (plan.empty()) {
    done.Set(false);
    return future;
  }
  if (busy_) {
    // One batch at a time: a second caller (e.g. a scheduled migration
    // racing the autoscaler) is refused, not queued -- its reserved
    // slots are released so the plan leaves no trace.
    cluster_.mutable_shard_map().AbortMigration(plan);
    done.Set(false);
    return future;
  }
  busy_ = true;
  RunBatch(std::move(plan), std::move(done));
  return future;
}

sim::Task MigrationCoordinator::RunBatch(std::vector<MigrationAssignment> plan,
                                         sim::Promise<bool> done) {
  co_await sim::SelfHandle(&batch_handle_);
  batch_active_ = true;

  sim::Simulator& sim = cluster_.sim();
  ShardMap& map = cluster_.mutable_shard_map();
  const uint32_t stripe_sectors = map.options().stripe_sectors;
  ++stats_.migrations_started;

  // Gate every moving placement on its source shard before the first
  // copy I/O: from here on, any client write into the range is either
  // observed (dirty bit + in-flight count) or, later, bounced.
  std::vector<int> gate_ids(plan.size(), -1);
  for (size_t i = 0; i < plan.size(); ++i) {
    gate_ids[i] = cluster_.server(plan[i].from.shard_index)
                      .AddRangeGate(plan[i].from.shard_lba, stripe_sectors);
  }
  auto gate_of = [&](size_t i) -> core::RangeGate* {
    return cluster_.server(plan[i].from.shard_index)
        .FindRangeGate(gate_ids[i]);
  };

  bool failed = false;
  bool draining = false;
  int rounds = 0;
  // Worklist of plan indices to copy this round; round 0 copies
  // everything, later rounds only what client writes dirtied.
  std::vector<size_t> work(plan.size());
  std::iota(work.begin(), work.end(), size_t{0});

  while (!work.empty() && !failed) {
    // Fan the round out kCopyConcurrency stripes at a time, joining
    // each wave on a barrier before launching the next.
    for (size_t base = 0; base < work.size() && !failed;
         base += kCopyConcurrency) {
      const size_t wave = std::min(kCopyConcurrency, work.size() - base);
      sim::Barrier barrier(sim, static_cast<int64_t>(wave));
      for (size_t j = 0; j < wave; ++j) {
        const size_t idx = work[base + j];
        CopyWorker(plan[idx], gate_ids[idx], stripe_sectors, rounds > 0,
                   &barrier, &failed);
      }
      co_await barrier.Done();
    }
    if (failed) break;

    if (rounds == 0 && before_cutover) {
      // Deterministic race point for tests: a write issued here lands
      // after the initial copy and must still reach the target.
      (void)co_await before_cutover();
    }
    ++rounds;

    // Next worklist: whatever client writes dirtied meanwhile. The
    // drop_forwarded_write mutation pretends nothing did -- those
    // writes are silently lost at cutover, which the simtest oracle
    // must catch as a stale read.
    work.clear();
    if (!options_.mutate_drop_forwarded_write) {
      for (size_t i = 0; i < plan.size(); ++i) {
        core::RangeGate* gate = gate_of(i);
        if (gate != nullptr && gate->dirty) work.push_back(i);
      }
    }
    if (!work.empty() && !draining && rounds <= kMaxDirtyRounds) {
      continue;  // another concurrent recopy round, writes still flow
    }
    if (!draining) {
      // Convergence (or round budget spent): stop the churn. Writes
      // into the range now bounce with retryable kWrongShard; reads
      // still serve from the source.
      draining = true;
      for (size_t i = 0; i < plan.size(); ++i) {
        if (core::RangeGate* gate = gate_of(i)) {
          gate->state = core::RangeGateState::kDraining;
        }
      }
      // kDrainTimeout bounds *stall*, not total drain time: on a
      // backlogged source a counted write can sit behind a long token
      // queue, and an absolute deadline would abort every grow attempt
      // exactly when the fleet most needs one. As long as the in-flight
      // count keeps falling the drain is making progress and may
      // continue; only a count frozen for the full timeout (a write
      // that will never complete) fails the batch.
      sim::TimeNs stalled = 0;
      uint32_t last_inflight = 0;
      for (bool first = true;; first = false) {
        uint32_t inflight = 0;
        for (size_t i = 0; i < plan.size(); ++i) {
          core::RangeGate* gate = gate_of(i);
          if (gate != nullptr) inflight += gate->inflight_writes;
        }
        if (inflight == 0) break;
        if (first || inflight < last_inflight) {
          stalled = 0;
        } else if (stalled >= kDrainTimeout) {
          failed = true;  // a counted write never completed; bail out
          break;
        }
        last_inflight = inflight;
        co_await sim::Delay(sim, kDrainPollInterval);
        stalled += kDrainPollInterval;
      }
      if (failed) break;
      // One last pass over anything dirtied between the last recopy
      // and the drain taking effect; no new writes can land now.
      work.clear();
      if (!options_.mutate_drop_forwarded_write) {
        for (size_t i = 0; i < plan.size(); ++i) {
          core::RangeGate* gate = gate_of(i);
          if (gate != nullptr && gate->dirty) work.push_back(i);
        }
      }
      continue;
    }
    // Already draining: bounced writes cannot dirty gates, so the
    // rebuilt worklist is empty and the loop exits.
  }

  if (failed) {
    // Abort is always safe: the master map never changed, so no client
    // ever routed to the target. Release gates and reserved slots; the
    // source stays authoritative.
    for (size_t i = 0; i < plan.size(); ++i) {
      cluster_.server(plan[i].from.shard_index).RemoveRangeGate(gate_ids[i]);
    }
    map.AbortMigration(plan);
    ++stats_.migrations_aborted;
  } else {
    // Cutover: one atomic map flip, then the moved ranges reject any
    // request still routed by a pre-cutover map copy.
    map.CommitMigration(plan);
    const uint64_t cutover_epoch = map.epoch();
    for (size_t i = 0; i < plan.size(); ++i) {
      if (options_.mutate_serve_premigration_range) {
        // Mutation: forget the range moved. The source happily serves
        // stale-mapped traffic with pre-migration data.
        cluster_.server(plan[i].from.shard_index)
            .RemoveRangeGate(gate_ids[i]);
        continue;
      }
      if (core::RangeGate* gate = gate_of(i)) {
        gate->state = core::RangeGateState::kMoved;
        gate->min_epoch = cutover_epoch;
        gate->dirty = false;
      }
    }
    ++stats_.migrations_committed;
    stats_.stripes_moved += static_cast<int64_t>(plan.size());
  }

  busy_ = false;
  batch_handle_ = nullptr;
  batch_active_ = false;
  done.Set(!failed);
}

}  // namespace reflex::cluster
