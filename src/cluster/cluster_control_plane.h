#ifndef REFLEX_CLUSTER_CLUSTER_CONTROL_PLANE_H_
#define REFLEX_CLUSTER_CLUSTER_CONTROL_PLANE_H_

#include <coroutine>
#include <cstdint>
#include <vector>

#include "core/protocol.h"
#include "core/tenant.h"
#include "obs/metrics.h"
#include "sim/task.h"
#include "sim/time.h"

namespace reflex::cluster {

class FlashCluster;
class MigrationCoordinator;

/**
 * A cluster-wide tenant: one per-shard tenant registration on every
 * shard, in shard order. Value type; pass it back to
 * ClusterControlPlane::UnregisterTenant (or let an owning
 * ClusterSession do it).
 */
struct ClusterTenant {
  std::vector<uint32_t> handles;
  core::SloSpec cluster_slo;
  core::SloSpec shard_slo;
  core::TenantClass cls = core::TenantClass::kBestEffort;

  bool valid() const { return !handles.empty(); }
};

/**
 * Typed outcome of cluster-wide admission (RegisterTenant /
 * ClusterClient::OpenSession). Distinguishes "the cluster has no
 * capacity for this SLO" from "one shard refused" -- the replication
 * control plane treats the former as a tenant problem and the latter
 * as a shard-health signal (e.g. a replica that is down or dirty and
 * should be excluded until re-registered).
 */
struct AdmitResult {
  enum class Kind : uint8_t {
    /** Admitted on every shard. */
    kAccepted = 0,
    /** A shard's token math rejected the per-shard share
     * (kOutOfResources): the cluster lacks capacity for the SLO. */
    kRejectedCapacity = 1,
    /** A shard refused for a non-capacity reason (connection refused,
     * ACL, dead replica); `shard` identifies it. */
    kRejectedShard = 2,
    /** Admission succeeded but post-admission setup (per-shard session
     * attach) failed and the registration was rolled back. */
    kRolledBack = 3,
  };

  Kind kind = Kind::kAccepted;
  /** Shard index the failure is attributed to; -1 when not tied to
   * one shard (accepted, or capacity exhausted cluster-wide). */
  int shard = -1;
  /** The underlying per-shard status code. */
  core::ReqStatus status = core::ReqStatus::kOk;

  bool ok() const { return kind == Kind::kAccepted; }
};

/** Stable name for an AdmitResult::Kind (logs, bench JSON). */
const char* AdmitKindName(AdmitResult::Kind kind);

/**
 * Cluster-wide admission control and metrics rollup.
 *
 * Admission splits a tenant's cluster SLO into equal per-shard shares
 * (ceil(iops / N); reads spread uniformly under striping) and admits
 * the tenant only if every shard's token math accepts its share --
 * all-or-nothing, with rollback of the shards already registered, so
 * a rejected tenant leaves no partial reservations behind.
 */
class ClusterControlPlane {
 public:
  /**
   * SLO-aware elastic scaling (DESIGN.md section 17). The autoscaler
   * samples two per-shard load signals each period -- token-spend rate
   * against the calibrated device token capacity, and the dataplane
   * queue-depth hint -- and sizes the *active server set*: the prefix
   * of shards allowed to hold the configured hot stripe range. Growing
   * spreads the hot stripes over one more shard; shrinking packs them
   * back onto fewer. Placement changes are ordinary live migrations
   * through the MigrationCoordinator, so scaling is hitless; the
   * active set never drops below the map's replication factor (every
   * stripe keeps R distinct shards) nor below min_active.
   */
  struct AutoscalerOptions {
    sim::TimeNs period = sim::Millis(2);
    /** Grow when any active shard's token utilization exceeds this. */
    double high_utilization = 0.70;
    /** Shrink when every active shard sits below this (an idle
     * fleet). A busier fleet also shrinks once its summed utilization
     * fits on one fewer shard below high_utilization. */
    double low_utilization = 0.30;
    /** Consecutive shrink-qualifying periods required before a shrink
     * actually fires. Growing is eager (SLO pressure), shrinking is
     * damped: one quiet sample right after a grow overshoot must not
     * bounce the fleet straight back down. */
    int shrink_persistence = 3;
    /** Grow when any active shard's queue-depth hint exceeds this
     * (catches SLO pressure the token signal lags on). */
    uint32_t high_queue_depth = 64;
    /** Grow whenever any active shard rejected at least this many
     * requests on QoS (neg-limit hits) during the period. Rejects keep
     * both other signals quiet -- served throughput plateaus and the
     * queue stays short -- so without this an overloaded-but-rejecting
     * fleet reads as healthy and never scales out. */
    int64_t high_rejects = 1;
    int min_active = 1;
    /** Hot stripe range the active set serves; replica ordinal k of
     * stripe s is placed on active shard (s + k) mod active. */
    uint64_t hot_first_stripe = 0;
    uint64_t hot_stripes = 64;
  };

  struct AutoscalerStats {
    int64_t evaluations = 0;
    int64_t grow_events = 0;
    int64_t shrink_events = 0;
    /** Migration batches issued (a resize can plan an empty batch). */
    int64_t rebalances = 0;
    int64_t rebalances_failed = 0;
  };

  explicit ClusterControlPlane(FlashCluster& cluster);
  ~ClusterControlPlane();

  /**
   * Registers `slo` across every shard. On rejection returns an
   * invalid ClusterTenant, fills `result` (optional) with the typed
   * reason, and unregisters any shards already admitted.
   */
  ClusterTenant RegisterTenant(const core::SloSpec& slo,
                               core::TenantClass cls,
                               AdmitResult* result = nullptr);

  /** Unregisters the tenant from every shard. */
  bool UnregisterTenant(const ClusterTenant& tenant);

  /** Per-shard share of a cluster SLO on an N-shard cluster. */
  static core::SloSpec ShardShare(const core::SloSpec& slo, int num_shards);

  /**
   * Aggregates per-shard dataplane, device and token statistics into
   * cluster rollups (cluster_* totals plus shard_*{shard=i} gauges)
   * and returns the registry.
   */
  obs::MetricsRegistry& SnapshotMetrics();

  obs::MetricsRegistry& metrics() { return metrics_; }

  int64_t tenants_admitted() const { return tenants_admitted_; }
  int64_t tenants_rejected() const { return tenants_rejected_; }

  /**
   * Currently-registered cluster tenants (admitted and not yet
   * unregistered). The simtest invariant probes enumerate these to
   * check that every tenant's per-shard shares sum to at least its
   * cluster grant with only ceil-rounding slack.
   */
  const std::vector<ClusterTenant>& active_tenants() const {
    return active_tenants_;
  }

  /**
   * Starts the periodic scaling loop. `coordinator` must outlive the
   * loop (call StopAutoscaler -- or end the simulation -- before
   * destroying it). One loop at a time.
   */
  void StartAutoscaler(MigrationCoordinator& coordinator,
                       AutoscalerOptions options);

  /** Stops the loop; it exits at its next wakeup. */
  void StopAutoscaler() { autoscaler_running_ = false; }

  /** Shards currently in the active serving set (always the prefix
   * [0, active_shards) of the shard list). */
  int active_shards() const { return active_shards_; }

  const AutoscalerStats& autoscaler_stats() const {
    return autoscaler_stats_;
  }

 private:
  sim::Task AutoscaleLoop();
  /** Token utilization + max queue-depth hint of shard `i` since the
   * previous sample, `dt` ago. */
  double SampleShardUtilization(int i, sim::TimeNs dt,
                                uint32_t* queue_depth);
  /** QoS rejects (tenant neg-limit hits) on shard `i` since the
   * previous sample. */
  int64_t SampleShardRejects(int i);

  FlashCluster& cluster_;
  obs::MetricsRegistry metrics_;
  int64_t tenants_admitted_ = 0;
  int64_t tenants_rejected_ = 0;
  std::vector<ClusterTenant> active_tenants_;

  // --- Autoscaler state ---
  MigrationCoordinator* autoscaler_coordinator_ = nullptr;
  AutoscalerOptions autoscaler_options_;
  AutoscalerStats autoscaler_stats_;
  bool autoscaler_running_ = false;
  int active_shards_ = 0;
  /** Previous tokens_spent_total sample per shard. */
  std::vector<double> prev_tokens_spent_;
  /** Previous summed tenant neg_limit_hits sample per shard. */
  std::vector<int64_t> prev_neg_hits_;
  /** Loop frame parked on its Delay at teardown (simulation over);
   * destroyed by ~ClusterControlPlane. */
  std::coroutine_handle<> autoscaler_handle_;
  bool autoscaler_active_ = false;
};

}  // namespace reflex::cluster

#endif  // REFLEX_CLUSTER_CLUSTER_CONTROL_PLANE_H_
