#ifndef REFLEX_CLUSTER_MIGRATION_H_
#define REFLEX_CLUSTER_MIGRATION_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "client/io_result.h"
#include "client/reflex_client.h"
#include "cluster/flash_cluster.h"
#include "cluster/shard_map.h"
#include "net/network.h"
#include "sim/task.h"
#include "sim/time.h"

namespace reflex::cluster {

/**
 * Drives live sector-range migration over a FlashCluster (DESIGN.md
 * section 17). A migration batch is copy-then-forward:
 *
 *  1. Plan: ShardMap::PlanStripeMoves reserves landing slots on the
 *     target shards (the master map is untouched -- clients keep
 *     routing to the source).
 *  2. Gate: every moving placement gets a kCopying range gate on its
 *     source shard. Client writes still land there, but each one
 *     marks the gate dirty and is counted in flight.
 *  3. Copy: the coordinator streams every stripe source -> target
 *     through ordinary dataplane I/O (best-effort class, so copy
 *     traffic cannot eat latency-critical token reservations).
 *  4. Recopy: stripes whose gate went dirty during the copy are
 *     copied again (dirty-tracking is how "dual-written" versions
 *     reach the target without a client-visible write path change).
 *  5. Drain: gates escalate to kDraining -- new writes bounce with
 *     retryable kWrongShard while reads still serve -- and the
 *     coordinator waits for counted in-flight writes to quiesce, then
 *     runs the final dirty recopy.
 *  6. Cutover: ShardMap::CommitMigration flips every override
 *     atomically and bumps the map epoch; gates become kMoved with
 *     min_epoch = the new epoch, so requests routed by a pre-cutover
 *     map copy are bounced (kWrongShard) into a client map refresh,
 *     while fresh traffic -- including later reuse of the same slots
 *     -- passes.
 *
 * Any persistent copy failure aborts instead: gates and reserved
 * slots are released, the master map never changes, and the source
 * stays authoritative -- an abort is always safe because no client
 * ever routed to the target.
 *
 * One batch runs at a time (busy()); the autoscaler serializes its
 * rebalances behind this.
 */
class MigrationCoordinator {
 public:
  struct Options {
    /** Shape of the coordinator's per-shard copy clients. Timeouts
     * must stay enabled so a dead shard aborts the batch instead of
     * parking it forever. */
    client::ReflexClient::RetryPolicy retry = DefaultRetry();

    static client::ReflexClient::RetryPolicy DefaultRetry() {
      client::ReflexClient::RetryPolicy retry;
      retry.request_timeout = sim::Millis(2);
      retry.max_retries = 3;
      retry.backoff_base = sim::Micros(100);
      return retry;
    }

    // --- Planted-mutation canaries (simtest only; see runner.h) ---
    /** Skip every dirty recopy: a write admitted during the copy is
     * silently lost at cutover. The consistency oracle must catch
     * the resulting stale read. */
    bool mutate_drop_forwarded_write = false;
    /** Remove the gates at cutover instead of escalating to kMoved:
     * the source keeps answering stale-mapped requests with
     * pre-migration data. The oracle must catch it. */
    bool mutate_serve_premigration_range = false;
  };

  struct Stats {
    int64_t migrations_started = 0;
    int64_t migrations_committed = 0;
    int64_t migrations_aborted = 0;
    int64_t stripes_moved = 0;
    int64_t copy_ios = 0;
    int64_t dirty_recopies = 0;
  };

  MigrationCoordinator(FlashCluster& cluster, net::Network& net,
                       Options options);
  MigrationCoordinator(FlashCluster& cluster, net::Network& net)
      : MigrationCoordinator(cluster, net, Options()) {}
  ~MigrationCoordinator();

  MigrationCoordinator(const MigrationCoordinator&) = delete;
  MigrationCoordinator& operator=(const MigrationCoordinator&) = delete;

  /**
   * Test hook: awaited after the initial copy pass, before the
   * dirty-recopy/drain/cutover sequence. Lets the simtest runner race
   * a client write against a migration at a deterministic point.
   */
  std::function<sim::Future<client::IoResult>()> before_cutover;

  /**
   * Migrates every placement stripes [first_stripe, first+count) have
   * on `source` over to `target`. Resolves true on commit, false on
   * abort (including an empty plan). One batch at a time.
   */
  sim::Future<bool> MigrateRange(int source, int target,
                                 uint64_t first_stripe, uint64_t count);

  /** Runs an already-planned batch (autoscaler rebalances). The plan
   * must come from this cluster's master map. */
  sim::Future<bool> MigrateAssignments(std::vector<MigrationAssignment> plan);

  bool busy() const { return busy_; }
  const Stats& stats() const { return stats_; }
  const Options& options() const { return options_; }

 private:
  /** Lazily opens the copy session on shard `index`. */
  client::TenantSession* CopySession(int index);

  /** Batch driver coroutine. Its frame -- and the frames of any
   * CopyWorker fan-out still parked on copy I/O -- are tracked
   * (batch_handle_, copy_handles_) so a simulation that ends
   * mid-migration leaves only frames the destructor can reclaim. */
  sim::Task RunBatch(std::vector<MigrationAssignment> plan,
                     sim::Promise<bool> done);

  /** Copies one assignment source -> target (with per-I/O retries),
   * reports failure through `any_failed`, and arrives at `barrier`.
   * Both outparams live in the RunBatch frame, which stays parked on
   * the barrier until every worker of the wave has arrived. */
  sim::Task CopyWorker(MigrationAssignment a, int gate_id,
                       uint32_t stripe_sectors, bool count_recopy,
                       sim::Barrier* barrier, bool* any_failed);

  FlashCluster& cluster_;
  net::Machine* machine_;
  Options options_;
  Stats stats_;
  bool busy_ = false;

  /** Per-shard copy path: a best-effort tenant registered out of band
   * plus a client/session pair, opened on first use. */
  struct ShardPath {
    std::unique_ptr<client::ReflexClient> client;
    std::unique_ptr<client::TenantSession> session;
  };
  std::vector<ShardPath> paths_;

  /** Live RunBatch frame (parked on an await at teardown if the
   * simulation ended mid-migration); destroyed by the destructor. */
  std::coroutine_handle<> batch_handle_;
  bool batch_active_ = false;
  /** Live CopyWorker frames by id; each erases itself before
   * finishing, so whatever remains at teardown is parked on a copy
   * I/O that will never complete. std::map for node stability -- the
   * workers park SelfHandle pointers into the mapped values. */
  std::map<uint64_t, std::coroutine_handle<>> copy_handles_;
  uint64_t next_copy_id_ = 0;
};

}  // namespace reflex::cluster

#endif  // REFLEX_CLUSTER_MIGRATION_H_
