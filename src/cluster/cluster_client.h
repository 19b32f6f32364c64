#ifndef REFLEX_CLUSTER_CLUSTER_CLIENT_H_
#define REFLEX_CLUSTER_CLUSTER_CLIENT_H_

#include <coroutine>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "client/io_result.h"
#include "client/io_session.h"
#include "client/reflex_client.h"
#include "client/storage_backend.h"
#include "cluster/cluster_control_plane.h"
#include "cluster/flash_cluster.h"
#include "sim/histogram.h"
#include "sim/random.h"
#include "sim/slot_pool.h"
#include "sim/task.h"

namespace reflex::cluster {

class ClusterClient;

/**
 * How replicated reads choose among the R copies of an extent
 * (RackSched-style; writes always go to every live replica).
 */
enum class SteeringPolicy : uint8_t {
  /** Always the primary -- reproduces the unreplicated cluster. */
  kPrimaryOnly = 0,
  /** Power-of-two-choices over piggybacked queue-depth hints: sample
   * two distinct replicas, take the shallower queue. */
  kPowerOfTwo = 1,
  /** Scan all R replicas for the shallowest queue. */
  kFullScan = 2,
};

/** Stable name for a SteeringPolicy (scenario JSON, bench output). */
const char* SteeringPolicyName(SteeringPolicy policy);

/** Parses a SteeringPolicyName(); returns false on unknown names. */
bool SteeringPolicyFromName(const std::string& name, SteeringPolicy* out);

/**
 * A tenant's I/O endpoint on a sharded cluster: the session owns one
 * TenantSession per shard and routes each I/O through the cluster's
 * ShardMap. A request contained in one stripe goes to a single shard;
 * one that crosses stripe boundaries is split into per-shard extents,
 * issued in parallel, and completes (scatter-gather) when the slowest
 * extent does -- the returned IoResult carries the first failing
 * status, or kOk if every extent succeeded.
 *
 * With replication (ShardMapOptions::replication > 1) each extent has
 * R placements. Writes go to every replica and succeed if at least
 * one copy lands on a readable (non-dirty) replica -- replicas that
 * failed while another succeeded are marked dirty on the
 * ClusterClient and serve no reads until reinstated. Reads are
 * steered by the client's SteeringPolicy over per-shard queue-depth
 * hints, fail over to untried live replicas on error or timeout, and
 * fail closed (kDeviceError) when every replica of an extent is
 * dirty.
 *
 * The session owns a replicated read's deadline: while an untried
 * live replica remains, a sub-read goes out with no retransmit budget
 * (TenantSession::ReadOnce), so its first timeout or error reply fails
 * it over at once. Only an extent's last candidate -- and so every
 * read at R = 1 -- retransmits under the shard client's RetryPolicy.
 *
 * Sessions from ClusterClient::OpenSession() own the cluster-wide
 * tenant registration and unregister it on destruction (mirroring
 * client::TenantSession); AttachSession() leaves lifetime with the
 * caller.
 */
class ClusterSession : public client::IoSession {
 public:
  ~ClusterSession() override;
  ClusterSession(const ClusterSession&) = delete;
  ClusterSession& operator=(const ClusterSession&) = delete;

  /**
   * Reads `sectors` 512B sectors at logical `lba`. `data` (optional)
   * receives the payload, reassembled byte-exact across shards. The
   * future resolves when the last shard extent completes. `lane` pins
   * sub-requests to one connection of every per-shard pool; -1 lets
   * each pool round-robin.
   */
  sim::Future<client::IoResult> Read(uint64_t lba, uint32_t sectors,
                                     uint8_t* data = nullptr,
                                     int lane = -1) override;

  /** Writes (to every live replica of each extent); see Read(). */
  sim::Future<client::IoResult> Write(uint64_t lba, uint32_t sectors,
                                      uint8_t* data = nullptr,
                                      int lane = -1) override;

  const ClusterTenant& tenant() const { return tenant_; }
  ClusterClient& client() { return client_; }
  client::TenantSession& shard_session(int shard) {
    return *shard_sessions_[shard];
  }

  // IoSession geometry: the logical volume the shard map exposes.
  uint32_t tenant_handle() const override { return tenant_.handles[0]; }
  int num_lanes() const override;
  uint64_t capacity_sectors() const override;
  uint32_t sector_bytes() const override;
  uint32_t sectors_per_page() const override;

  /** Per-shard end-to-end latency of this session's *successful*
   * sub-requests (ns), attributed to the shard that actually served
   * each one -- a read steered or failed over to a replica lands in
   * the replica's histogram, not the primary's. Failed sub-requests
   * are not recorded: their duration is the failure path, not shard
   * service latency. A multi-extent I/O reports the first failing
   * extent's status (logical-LBA order). */
  const sim::Histogram& shard_latency(int shard) const {
    return shard_latency_[shard];
  }

  /** Successful reads served by `shard` (steering-imbalance metric). */
  int64_t shard_reads_served(int shard) const {
    return shard_reads_served_[shard];
  }

  int64_t requests_issued() const { return requests_issued_; }
  /** Requests that crossed a stripe boundary and were split. */
  int64_t requests_split() const { return requests_split_; }
  /** Read sub-requests that failed over to another replica. */
  int64_t read_failovers() const { return read_failovers_; }
  /** Whole-request reissues after a kWrongShard map refresh. */
  int64_t wrong_shard_retries() const { return wrong_shard_retries_; }

 private:
  friend class ClusterClient;

  /** Bounded refresh-and-reissue budget for requests that race a map
   * flip. Exponential backoff (base below, doubling per attempt) sums
   * to ~3 ms -- comfortably past a migration's drain window. */
  static constexpr int kMaxWrongShardRetries = 6;
  static constexpr sim::TimeNs kWrongShardBackoffBase = sim::Micros(50);

  ClusterSession(ClusterClient& client, ClusterTenant tenant,
                 std::vector<std::unique_ptr<client::TenantSession>> sessions,
                 bool owns_tenant);

  /** One extent of a read: its live placements are the slot's
   * `candidates[first, first + count)`, the `tried` ones first in the
   * order they were sent to, so the last of them serves the pending
   * sub-read. */
  struct ExtentRead {
    uint32_t first = 0;
    /** 0 when every replica is dirty: the extent fails without I/O. */
    uint32_t count = 0;
    uint32_t tried = 0;
    uint32_t sectors = 0;
    uint8_t* chunk = nullptr;
    std::optional<sim::Future<client::IoResult>> future;
  };

  /** One replica write of a write request's extent. */
  struct SubWrite {
    int shard_index = 0;
    sim::Future<client::IoResult> future;
  };

  /**
   * Everything one in-flight logical request keeps, in a recycled slot
   * of `io_slots_`: recycled vectors keep their capacity, so a warm
   * session allocates nothing per request. The request's frame refers
   * to its slot by index and re-reads it after every suspension (the
   * pool may grow meanwhile); the futures it awaits sit inside the
   * slot's vectors, whose buffers do not move when the pool grows.
   */
  struct IoSlot {
    /** The request's frame; null while the slot is free. */
    std::coroutine_handle<> frame;
    /** The pending kWrongShard backoff wakeup, if any. */
    sim::TimerHandle backoff;
    ShardSplit split;
    /** Read: per-extent state over the flat run of live candidates. */
    std::vector<ExtentRead> reads;
    std::vector<ReplicaTarget> candidates;
    /** Write: one sub-write per placement, extent after extent. */
    std::vector<SubWrite> writes;
    std::vector<int> failed_shards;
  };
  static_assert(std::is_nothrow_move_constructible_v<IoSlot>,
                "pool growth must move slots, keeping their vectors' "
                "buffers (and the futures parked frames await) in place");

  sim::Future<client::IoResult> Submit(bool is_read, uint64_t lba,
                                       uint32_t sectors, uint8_t* data,
                                       int lane);
  /**
   * One logical read or write, from its first routing to its result,
   * in the slot `slot`. Each attempt splits through the client's local
   * map and fans out over the extents. A
   * sub-request that comes back kWrongShard means the routing map copy
   * predates a migration cutover: the request refreshes the map, backs
   * off (doubling per attempt) and reissues in full; once the budget is
   * spent the kWrongShard surfaces to the caller.
   */
  sim::Task FanOut(bool is_read, uint32_t slot, uint8_t* data, int lane,
                   uint64_t lba, uint32_t sectors, sim::TimeNs issue_time,
                   sim::Promise<client::IoResult> promise);
  /** Routes one attempt: splits into the slot through the local map. */
  void Route(uint32_t slot, uint64_t lba, uint32_t sectors, int attempt);
  /** Issues one routed attempt's sub-requests; never suspends. */
  void IssueReads(uint32_t slot, uint8_t* data, int lane);
  void IssueWrites(uint32_t slot, uint8_t* data, int lane);
  /** Refreshes the map and parks the request's frame on its backoff. */
  sim::CancellableDelay WrongShardBackoff(uint32_t slot, int attempt);

  /** Appends the live (non-dirty) placements of `targets`, primary
   * first, to `out`; returns how many. 0 when every replica is dirty
   * (reads then fail closed). */
  uint32_t AppendLiveTargets(std::span<const ReplicaTarget> targets,
                             std::vector<ReplicaTarget>* out) const;

  /** Picks the steered first choice among `candidates` (an index into
   * them). Draws from steer_rng_ only for power-of-two with more than
   * two candidates, so R=1 consumes no randomness. */
  size_t SteerChoice(std::span<const ReplicaTarget> candidates);

  /** The one replica comparison: the shallower estimated queue wins,
   * ties break by shard id so the choice is deterministic for
   * identical hints. */
  bool Shallower(const ReplicaTarget& a, const ReplicaTarget& b) const;
  /** Index of the shallowest of `candidates` (full-scan steering, and
   * the failover pick among an extent's untried replicas). */
  size_t Shallowest(std::span<const ReplicaTarget> candidates) const;

  /** Sends extent `st`'s sub-read to its untried candidate `c` (an
   * index into its live run). While another candidate stays untried
   * the sub-read has no retransmit budget. */
  void SendRead(IoSlot& s, ExtentRead& st, uint32_t c, int lane);
  /** After extent `extent`'s sub-read failed with `status`: sends it to
   * the shallowest untried replica. False once every one was tried. */
  bool FailOver(uint32_t slot, size_t extent, core::ReqStatus status,
                int lane);

  ClusterClient& client_;
  ClusterTenant tenant_;
  /** In-flight requests. A frame still parked at teardown is
   * destroyed by ~ClusterSession, after every sub-I/O future and
   * backoff timer of its slot has forgotten it. */
  sim::SlotPool<IoSlot> io_slots_;
  std::vector<std::unique_ptr<client::TenantSession>> shard_sessions_;
  std::vector<sim::Histogram> shard_latency_;
  std::vector<int64_t> shard_reads_served_;
  sim::Rng steer_rng_;
  bool owns_tenant_;
  int64_t requests_issued_ = 0;
  int64_t requests_split_ = 0;
  int64_t read_failovers_ = 0;
  int64_t wrong_shard_retries_ = 0;
};

/**
 * Client-side view of a FlashCluster: one ReflexClient connection pool
 * per shard, all on one client machine. Mirrors the single-server
 * ReflexClient API -- OpenSession registers a tenant cluster-wide (via
 * the ClusterControlPlane's all-or-nothing admission) and returns an
 * owning session; AttachSession opens a session over a tenant
 * registered elsewhere.
 *
 * The client also owns the cluster-wide steering state shared by its
 * sessions: per-shard queue-depth hints (piggybacked by servers on
 * every response, decaying toward a prior when stale) and the dirty
 * set of replicas that missed a write and must not serve reads until
 * reinstated.
 */
class ClusterClient {
 public:
  struct Options {
    /**
     * Per-shard client shape (stack, connections per shard, retry).
     * Shard i's client perturbs the seed so shards draw independent
     * randomness.
     */
    client::ReflexClient::Options client;

    /** Read steering over replicas (ignored at replication == 1,
     * where every policy degenerates to the primary). */
    SteeringPolicy steering = SteeringPolicy::kPrimaryOnly;
  };

  ClusterClient(FlashCluster& cluster, net::Machine* machine,
                Options options);
  /** Default options (primary-only steering). */
  ClusterClient(FlashCluster& cluster, net::Machine* machine);

  /**
   * Registers `slo` across every shard and returns a session owning
   * the registration; null (with `result` filled) if admission
   * rejects the SLO or post-admission session setup fails and rolls
   * the registration back.
   */
  std::unique_ptr<ClusterSession> OpenSession(
      const core::SloSpec& slo, core::TenantClass cls,
      AdmitResult* result = nullptr);

  /** Session over an existing cluster-wide registration (not owned). */
  std::unique_ptr<ClusterSession> AttachSession(
      const ClusterTenant& tenant, core::ReqStatus* status = nullptr);

  FlashCluster& cluster() { return cluster_; }
  client::ReflexClient& shard_client(int shard) { return *clients_[shard]; }
  net::Machine* machine() { return machine_; }
  const Options& options() const { return options_; }

  /**
   * The client's own routing copy of the cluster ShardMap, taken at
   * construction and on RefreshMap(). Sessions route through this copy
   * -- never the live master -- so a migration commit flips routing
   * only when the client refreshes, exactly like a real deployment
   * where clients cache the map and learn of moves via kWrongShard.
   */
  const ShardMap& local_map() const { return local_map_; }

  /**
   * Re-copies the master map and restamps every shard client with its
   * epoch. A placement that moved off a dirty shard marks its new
   * shard dirty from the same version: the migration copied whatever
   * the old shard held, missed write included. Called by sessions on
   * kWrongShard.
   */
  void RefreshMap();

  /**
   * Current steering estimate of `shard`'s queue depth: the last
   * piggybacked hint, decayed linearly to zero over 500 us since the
   * last response from that shard.
   */
  double EffectiveQueueDepth(int shard) const;

  /**
   * Marks `shard` dirty as of `version` (a write version it missed):
   * the shard stops serving this client's reads and replicated writes
   * until ReinstateShard(), modeling a replica awaiting resync.
   */
  void MarkDirty(int shard, uint64_t version);
  bool IsDirty(int shard) const { return dirty_since_[shard] != 0; }
  /** First write version `shard` missed (0 when clean). */
  uint64_t dirty_since_version(int shard) const {
    return dirty_since_[shard];
  }
  /** Declares `shard` resynced (out-of-band) and steerable again. */
  void ReinstateShard(int shard) { dirty_since_[shard] = 0; }

  /** Monotonic stamp for replicated writes (dirty bookkeeping). */
  uint64_t NextWriteVersion() { return next_write_version_++; }

  /**
   * Floods `shard`'s hint with a penalty depth so steering avoids it
   * until a fresh response (or hint decay) rehabilitates it. Called
   * by sessions when a read on the shard times out.
   */
  void PenalizeShard(int shard);

 private:
  friend class ClusterSession;

  /** Penalty depth installed by PenalizeShard: far above any real
   * queue, so every live replica wins a steering comparison. */
  static constexpr double kPenaltyDepth = 1e9;

  struct HintState {
    double depth = 0.0;
    sim::TimeNs at = 0;
    bool seen = false;
  };

  std::unique_ptr<ClusterSession> MakeSession(ClusterTenant tenant,
                                              bool owns_tenant,
                                              AdmitResult* result);
  void ObserveHint(int shard, uint32_t depth);

  FlashCluster& cluster_;
  net::Machine* machine_;
  Options options_;
  ShardMap local_map_;
  std::vector<std::unique_ptr<client::ReflexClient>> clients_;
  std::vector<HintState> hints_;
  /** Per shard: 0 = clean, else the write version it first missed. */
  std::vector<uint64_t> dirty_since_;
  uint64_t next_write_version_ = 1;
};

}  // namespace reflex::cluster

#endif  // REFLEX_CLUSTER_CLUSTER_CLIENT_H_
