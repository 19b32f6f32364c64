#include "cluster/cluster_control_plane.h"

#include <algorithm>

#include "cluster/flash_cluster.h"
#include "cluster/migration.h"
#include "core/reflex_server.h"
#include "sim/logging.h"

namespace reflex::cluster {

const char* AdmitKindName(AdmitResult::Kind kind) {
  switch (kind) {
    case AdmitResult::Kind::kAccepted:
      return "accepted";
    case AdmitResult::Kind::kRejectedCapacity:
      return "rejected_capacity";
    case AdmitResult::Kind::kRejectedShard:
      return "rejected_shard";
    case AdmitResult::Kind::kRolledBack:
      return "rolled_back";
  }
  return "unknown";
}

ClusterControlPlane::ClusterControlPlane(FlashCluster& cluster)
    : cluster_(cluster) {}

ClusterControlPlane::~ClusterControlPlane() {
  // An autoscaler loop parked on its Delay when the simulation ended
  // never resumes; reclaim the frame (see sim::SelfHandle).
  if (autoscaler_active_ && autoscaler_handle_) {
    autoscaler_active_ = false;
    autoscaler_handle_.destroy();
  }
}

void ClusterControlPlane::StartAutoscaler(MigrationCoordinator& coordinator,
                                          AutoscalerOptions options) {
  REFLEX_CHECK(!autoscaler_running_);
  REFLEX_CHECK(cluster_.num_shards() >= 1);
  autoscaler_coordinator_ = &coordinator;
  autoscaler_options_ = options;
  autoscaler_running_ = true;
  if (active_shards_ == 0) active_shards_ = cluster_.num_shards();
  prev_tokens_spent_.assign(static_cast<size_t>(cluster_.num_shards()), 0.0);
  prev_neg_hits_.assign(static_cast<size_t>(cluster_.num_shards()), 0);
  for (int i = 0; i < cluster_.num_shards(); ++i) {
    prev_tokens_spent_[static_cast<size_t>(i)] =
        cluster_.server(i).shared().tokens_spent_total;
    SampleShardRejects(i);
  }
  AutoscaleLoop();
}

double ClusterControlPlane::SampleShardUtilization(int i, sim::TimeNs dt,
                                                   uint32_t* queue_depth) {
  core::ReflexServer& server = cluster_.server(i);
  const double spent = server.shared().tokens_spent_total;
  const double delta = spent - prev_tokens_spent_[static_cast<size_t>(i)];
  prev_tokens_spent_[static_cast<size_t>(i)] = spent;
  // Utilization = token spend rate over the calibrated device token
  // capacity -- the same currency admission control reserves in, so
  // "0.7 utilized" means 70% of what the token math would sell.
  const double capacity =
      server.calibration().token_capacity_per_sec * sim::ToSeconds(dt);
  uint32_t depth = 0;
  for (int t = 0; t < server.num_active_threads(); ++t) {
    depth = std::max(depth, server.thread(t).QueueDepthHint());
  }
  if (queue_depth != nullptr) *queue_depth = depth;
  return capacity > 0.0 ? delta / capacity : 0.0;
}

int64_t ClusterControlPlane::SampleShardRejects(int i) {
  int64_t hits = 0;
  for (const core::Tenant* t : cluster_.server(i).tenants()) {
    hits += t->neg_limit_hits;
  }
  const int64_t delta = hits - prev_neg_hits_[static_cast<size_t>(i)];
  prev_neg_hits_[static_cast<size_t>(i)] = hits;
  return delta;
}

sim::Task ClusterControlPlane::AutoscaleLoop() {
  co_await sim::SelfHandle(&autoscaler_handle_);
  autoscaler_active_ = true;
  sim::Simulator& sim = cluster_.sim();
  const AutoscalerOptions opts = autoscaler_options_;

  int low_streak = 0;
  while (autoscaler_running_) {
    co_await sim::Delay(sim, opts.period);
    if (!autoscaler_running_) break;
    ++autoscaler_stats_.evaluations;

    const int n = cluster_.num_shards();
    double max_util = 0.0;
    double sum_util = 0.0;
    uint32_t max_depth = 0;
    int64_t max_rejects = 0;
    for (int i = 0; i < n; ++i) {
      // Sample every shard (keeps baselines fresh for shards about to
      // join the active set) but only the active prefix drives the
      // decision.
      uint32_t depth = 0;
      const double util = SampleShardUtilization(i, opts.period, &depth);
      const int64_t rejects = SampleShardRejects(i);
      if (i < active_shards_) {
        max_util = std::max(max_util, util);
        sum_util += util;
        max_depth = std::max(max_depth, depth);
        max_rejects = std::max(max_rejects, rejects);
      }
    }

    // The active set never shrinks below the replication factor: every
    // hot stripe must keep R placements on R distinct shards.
    const int floor_active = std::max(
        {1, opts.min_active, cluster_.shard_map().replication()});
    int desired = active_shards_;
    // Rejects are the strongest grow signal: a shard throttling on its
    // token reservation serves a flat rate and keeps its queue short,
    // so the other two signals read "healthy" while offered load
    // bounces. Without this term an over-packed fleet is metastable --
    // it rejects forever and never scales out of the regime.
    if ((max_util > opts.high_utilization ||
         max_depth > opts.high_queue_depth ||
         max_rejects >= opts.high_rejects) &&
        active_shards_ < n) {
      desired = active_shards_ + 1;
      low_streak = 0;
    } else if (active_shards_ > floor_active &&
               (max_util < opts.low_utilization ||
                sum_util / (active_shards_ - 1) < opts.high_utilization) &&
               max_depth <= opts.high_queue_depth / 2 && max_rejects == 0) {
      // Shrink when the fleet is idle (every shard below the low mark)
      // or when its summed load, packed onto one fewer shard, stays
      // under the grow mark. The second test is what sheds servers as
      // load falls after a peak: a per-shard low mark alone would wait
      // for the whole fleet to drop below N x low, although N - 1
      // shards carry up to (N - 1) x high without growing back.
      // Shrinking is damped: only shrink_persistence such periods in a
      // row give up a server.
      if (++low_streak >= opts.shrink_persistence) {
        desired = active_shards_ - 1;
      }
    } else {
      low_streak = 0;
    }
    desired = std::clamp(desired, floor_active, n);
    if (desired == active_shards_) continue;
    low_streak = 0;
    if (autoscaler_coordinator_->busy()) continue;  // retry next period

    // Re-place the hot range over the resized active set; the plan
    // drops placements already where they belong, so repeated resizes
    // only move what changed.
    ShardMap& map = cluster_.mutable_shard_map();
    const int r = map.replication();
    std::vector<ShardMap::StripeMove> moves;
    const uint64_t end_stripe = std::min(
        opts.hot_first_stripe + opts.hot_stripes, map.num_stripes());
    for (uint64_t s = opts.hot_first_stripe; s < end_stripe; ++s) {
      for (int k = 0; k < r; ++k) {
        moves.push_back(ShardMap::StripeMove{
            s, k,
            static_cast<int>((s + static_cast<uint64_t>(k)) %
                             static_cast<uint64_t>(desired))});
      }
    }
    std::vector<MigrationAssignment> plan = map.PlanStripeMoves(moves);
    bool applied = true;
    if (!plan.empty()) {
      ++autoscaler_stats_.rebalances;
      applied = co_await autoscaler_coordinator_->MigrateAssignments(
          std::move(plan));
      if (!applied) ++autoscaler_stats_.rebalances_failed;

      // The batch's copy traffic polluted this period's signals (its
      // token spend and queue depth look like tenant load, which would
      // bounce the fleet straight back up). Sit out one period and
      // re-baseline every shard before the next decision.
      co_await sim::Delay(sim, opts.period);
      if (!autoscaler_running_) break;
      for (int i = 0; i < n; ++i) {
        SampleShardUtilization(i, opts.period, nullptr);
        SampleShardRejects(i);
      }
    }

    // The active set only changes when the repack actually applied: a
    // size adopted before an aborted migration would never be retried
    // (desired == active next period) and would leave the hot range
    // packed on fewer shards than the fleet believes it has -- an
    // overload trap when load keeps rising.
    if (!applied) continue;
    if (desired > active_shards_) {
      ++autoscaler_stats_.grow_events;
    } else {
      ++autoscaler_stats_.shrink_events;
    }
    active_shards_ = desired;
  }

  autoscaler_handle_ = nullptr;
  autoscaler_active_ = false;
}

core::SloSpec ClusterControlPlane::ShardShare(const core::SloSpec& slo,
                                              int num_shards) {
  REFLEX_CHECK(num_shards >= 1);
  core::SloSpec share = slo;
  const auto n = static_cast<uint64_t>(num_shards);
  share.iops = (slo.iops + n - 1) / n;
  return share;
}

ClusterTenant ClusterControlPlane::RegisterTenant(const core::SloSpec& slo,
                                                  core::TenantClass cls,
                                                  AdmitResult* result) {
  ClusterTenant tenant;
  tenant.cluster_slo = slo;
  tenant.shard_slo = cls == core::TenantClass::kLatencyCritical
                         ? ShardShare(slo, cluster_.num_shards())
                         : slo;
  tenant.cls = cls;
  for (int i = 0; i < cluster_.num_shards(); ++i) {
    core::ReqStatus shard_status = core::ReqStatus::kOk;
    core::Tenant* t = cluster_.server(i).RegisterTenant(
        tenant.shard_slo, cls, &shard_status);
    if (t == nullptr) {
      // All-or-nothing: roll back the shards already registered.
      for (int k = 0; k < i; ++k) {
        cluster_.server(k).UnregisterTenant(tenant.handles[k]);
      }
      if (result != nullptr) {
        // kOutOfResources is the token-math verdict "this share does
        // not fit", a cluster-capacity problem; anything else is the
        // specific shard misbehaving.
        result->kind = shard_status == core::ReqStatus::kOutOfResources
                           ? AdmitResult::Kind::kRejectedCapacity
                           : AdmitResult::Kind::kRejectedShard;
        result->shard = i;
        result->status = shard_status;
      }
      ++tenants_rejected_;
      return ClusterTenant{};
    }
    tenant.handles.push_back(t->handle());
  }
  if (result != nullptr) *result = AdmitResult{};
  ++tenants_admitted_;
  active_tenants_.push_back(tenant);
  return tenant;
}

bool ClusterControlPlane::UnregisterTenant(const ClusterTenant& tenant) {
  if (!tenant.valid()) return false;
  REFLEX_CHECK(static_cast<int>(tenant.handles.size()) ==
               cluster_.num_shards());
  bool all_ok = true;
  for (int i = 0; i < cluster_.num_shards(); ++i) {
    all_ok &= cluster_.server(i).UnregisterTenant(tenant.handles[i]);
  }
  // Drop the registry entry only when every shard actually released
  // the tenant. If any shard refused, the tenant is still (partially)
  // registered and must stay visible in active_tenants_, otherwise
  // the registry diverges from shard state and the simtest
  // registration probe can no longer catch the leak.
  if (all_ok) {
    for (auto it = active_tenants_.begin(); it != active_tenants_.end();
         ++it) {
      if (it->handles == tenant.handles) {
        active_tenants_.erase(it);
        break;
      }
    }
  }
  return all_ok;
}

obs::MetricsRegistry& ClusterControlPlane::SnapshotMetrics() {
  metrics_.GetGauge("cluster_shards")
      ->Set(static_cast<double>(cluster_.num_shards()));
  metrics_.GetGauge("cluster_tenants_admitted")
      ->Set(static_cast<double>(tenants_admitted_));
  metrics_.GetGauge("cluster_tenants_rejected")
      ->Set(static_cast<double>(tenants_rejected_));

  double rx = 0, tx = 0, errors = 0;
  double device_reads = 0, device_writes = 0, tokens = 0;
  for (int i = 0; i < cluster_.num_shards(); ++i) {
    const auto shard = static_cast<int64_t>(i);
    const core::DataplaneStats stats = cluster_.server(i).AggregateStats();
    const flash::FlashDeviceStats& dev = cluster_.device(i).stats();
    const double shard_tokens =
        cluster_.server(i).shared().tokens_spent_total;
    metrics_.GetGauge("shard_requests_rx", obs::Label("shard", shard))
        ->Set(static_cast<double>(stats.requests_rx));
    metrics_.GetGauge("shard_responses_tx", obs::Label("shard", shard))
        ->Set(static_cast<double>(stats.responses_tx));
    metrics_.GetGauge("shard_error_responses", obs::Label("shard", shard))
        ->Set(static_cast<double>(stats.error_responses));
    metrics_.GetGauge("shard_device_reads", obs::Label("shard", shard))
        ->Set(static_cast<double>(dev.reads_completed));
    metrics_.GetGauge("shard_device_writes", obs::Label("shard", shard))
        ->Set(static_cast<double>(dev.writes_completed));
    metrics_.GetGauge("shard_tokens_spent", obs::Label("shard", shard))
        ->Set(shard_tokens);
    rx += static_cast<double>(stats.requests_rx);
    tx += static_cast<double>(stats.responses_tx);
    errors += static_cast<double>(stats.error_responses);
    device_reads += static_cast<double>(dev.reads_completed);
    device_writes += static_cast<double>(dev.writes_completed);
    tokens += shard_tokens;
  }
  metrics_.GetGauge("cluster_requests_rx")->Set(rx);
  metrics_.GetGauge("cluster_responses_tx")->Set(tx);
  metrics_.GetGauge("cluster_error_responses")->Set(errors);
  metrics_.GetGauge("cluster_device_reads")->Set(device_reads);
  metrics_.GetGauge("cluster_device_writes")->Set(device_writes);
  metrics_.GetGauge("cluster_tokens_spent")->Set(tokens);
  return metrics_;
}

}  // namespace reflex::cluster
