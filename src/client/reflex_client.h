#ifndef REFLEX_CLIENT_REFLEX_CLIENT_H_
#define REFLEX_CLIENT_REFLEX_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "client/io_result.h"
#include "client/io_session.h"
#include "core/reflex_server.h"
#include "net/network.h"
#include "net/stack_costs.h"
#include "sim/flat_index.h"
#include "sim/random.h"
#include "sim/slot_pool.h"
#include "sim/task.h"

namespace reflex::client {

class ReflexClient;

/**
 * A tenant's I/O endpoint on one ReflexClient: all reads, writes and
 * barriers are issued through a session, which carries the tenant
 * handle so callers never thread raw handles through their code.
 *
 * Sessions are RAII views over the client's connection pool. The
 * first session opened on a client with an empty pool opens the
 * configured number of connections, accepted by the server directly
 * onto the tenant's dataplane thread (ReflexServer::Accept); later
 * sessions on the same client share that pool, which is how one
 * socket can serve many tenants (Figure 6b). A session returned by
 * ReflexClient::OpenSession() owns its tenant registration and
 * unregisters it on destruction; AttachSession() leaves lifetime
 * with whoever registered the tenant.
 */
class TenantSession : public IoSession {
 public:
  ~TenantSession() override;
  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;

  /**
   * Issues a read of `sectors` 512B sectors at `lba`. `data`
   * (optional) receives the payload. The returned future resolves
   * after client-side receive processing, so its latency is the full
   * application-observed round trip. `conn_index` pins the request to
   * one connection of the pool; -1 round-robins.
   *
   * Payloads travel by value (IoSession's buffer contract): a write's
   * bytes are copied into its request at send time, and a read's
   * payload is copied into `data` only when the op resolves kOk. A
   * retransmission, a late duplicate or a request that outlives its
   * timeout never touches `data`.
   */
  sim::Future<IoResult> Read(uint64_t lba, uint32_t sectors,
                             uint8_t* data = nullptr,
                             int conn_index = -1) override;

  /** Issues a write; see Read(). */
  sim::Future<IoResult> Write(uint64_t lba, uint32_t sectors,
                              uint8_t* data = nullptr,
                              int conn_index = -1) override;

  /**
   * Issues an ordering barrier (paper section 4.1 extension): resolves
   * once every I/O of this tenant issued before it has completed on
   * the device; I/Os issued after it are not submitted until then.
   */
  sim::Future<IoResult> Barrier(int conn_index = -1);

  uint32_t handle() const { return handle_; }
  ReflexClient& client() { return client_; }

  // IoSession: one lane per TCP connection of the shared pool; the
  // device profile supplies geometry.
  uint32_t tenant_handle() const override { return handle_; }
  int num_lanes() const override;
  uint64_t capacity_sectors() const override;
  uint32_t sector_bytes() const override;
  uint32_t sectors_per_page() const override;

 private:
  friend class ReflexClient;
  TenantSession(ReflexClient& client, uint32_t handle, bool owns_handle)
      : client_(client), handle_(handle), owns_handle_(owns_handle) {}

  ReflexClient& client_;
  uint32_t handle_;
  /** True for OpenSession() sessions: destruction unregisters. */
  bool owns_handle_;
};

/**
 * The ReFlex user-level client library (paper section 4.2): opens TCP
 * connections to a ReFlex server and issues read/write requests for
 * logical blocks, bypassing the client's filesystem and block layers.
 *
 * The client's network stack is configurable: StackCosts::IxDataplane()
 * models the paper's "IX client" rows and StackCosts::LinuxEpoll() the
 * "Linux client" rows of Table 2.
 *
 * I/O goes through TenantSession objects (OpenSession/AttachSession);
 * the client owns the connection pool and the retry machinery shared
 * by every session on it.
 */
class ReflexClient {
 public:
  /**
   * Failure-handling policy. Disabled by default (request_timeout ==
   * 0): without timeouts the client behaves exactly as before and
   * panics on unexpected responses, which is the right mode for the
   * fault-free benches. With a timeout set, reads (idempotent) are
   * retransmitted with capped exponential backoff; writes and
   * barriers fail back to the caller with kUnknownOutcome, since the
   * library cannot know whether they executed and must neither
   * retransmit (risking a double-apply) nor report definite failure.
   */
  struct RetryPolicy {
    /** 0 disables timeouts and all retry machinery. */
    sim::TimeNs request_timeout = 0;
    /** Retransmissions per read on timeout or on a kDeviceError /
     * kOutOfResources reply. */
    int max_retries = 0;
    /** First retransmission delay; each later one doubles it, up to
     * a fixed 5 ms cap. */
    sim::TimeNs backoff_base = sim::Micros(100);
    /** Consecutive timeouts on one connection before reconnecting. */
    int reconnect_after_timeouts = 3;
  };

  /** Client-side fault handling outcomes (all zero with retries off). */
  struct FaultStats {
    int64_t timeouts = 0;
    int64_t retries = 0;
    int64_t failures = 0;
    int64_t stale_responses = 0;
    int64_t reconnects = 0;
  };

  struct Options {
    net::StackCosts stack = net::StackCosts::IxDataplane();
    /**
     * Number of TCP connections the first session opens (the pool is
     * shared by every session on this client).
     */
    int num_connections = 1;
    uint64_t seed = 1;
    /**
     * Trace one in N read/write requests end-to-end (0 = off, 1 =
     * every request). Finished spans land in the server's
     * TraceCollector; see DESIGN.md "Observability".
     */
    uint32_t trace_sample_every = 0;
    RetryPolicy retry;
  };

  ReflexClient(sim::Simulator& sim, core::ReflexServer& server,
               net::Machine* machine, Options options);
  ~ReflexClient();
  ReflexClient(const ReflexClient&) = delete;
  ReflexClient& operator=(const ReflexClient&) = delete;

  /**
   * Registers a tenant with the server and returns a session that
   * owns the registration (destroying it unregisters the tenant).
   * Returns null if admission control rejects the SLO or the server
   * refuses the connection; `status` (optional) receives the reason.
   */
  std::unique_ptr<TenantSession> OpenSession(
      const core::SloSpec& slo, core::TenantClass cls,
      core::ReqStatus* status = nullptr);

  /**
   * Opens a session over a tenant registered elsewhere (out-of-band
   * RegisterTenant, or a handle obtained from in-band Register). The
   * session does not own the registration. Returns null if the server
   * refuses the connection (unknown tenant, ACL denial).
   */
  std::unique_ptr<TenantSession> AttachSession(
      uint32_t handle, core::ReqStatus* status = nullptr);

  /** Registers a tenant in-band; resolves with the assigned handle. */
  sim::Future<core::ResponseMsg> Register(const core::SloSpec& slo,
                                          core::TenantClass cls);

  /** Unregisters a tenant in-band. */
  sim::Future<core::ResponseMsg> Unregister(uint32_t handle);

  /**
   * Opens one more control (tenant-unbound) connection; returns its
   * index. Control connections round-robin over the server's dataplane
   * threads until in-band registration binds them; a pool of them can
   * be shared by many AttachSession() tenants (Figure 6b).
   */
  int OpenConnection();

  int num_connections() const {
    return static_cast<int>(connections_.size());
  }
  net::Machine* machine() { return machine_; }
  core::ReflexServer& server() { return server_; }
  const Options& options() const { return options_; }

  const FaultStats& fault_stats() const { return fault_stats_; }

  /**
   * Observer for the queue-depth hint the server piggybacks on every
   * data response (core::ResponseMsg::queue_depth_hint). Invoked
   * synchronously from response receive -- including for stale
   * duplicates, whose hints are just as fresh as any other. Used by
   * ClusterClient to maintain per-shard load estimates for
   * power-of-d-choices read steering.
   */
  void set_hint_listener(std::function<void(uint32_t)> fn) {
    hint_listener_ = std::move(fn);
  }

  /**
   * Shard-map epoch stamped on every outgoing I/O (and retransmission)
   * from now on. Set by ClusterClient whenever its local map copy
   * refreshes; the default bypass sentinel leaves single-server
   * clients out of migration epoch checks entirely.
   */
  void set_map_epoch(uint64_t epoch) { map_epoch_ = epoch; }
  uint64_t map_epoch() const { return map_epoch_; }

 private:
  friend class TenantSession;
  struct PendingOp {
    sim::Promise<IoResult> promise;
    sim::TimeNs issue_time;
    uint32_t payload_bytes;
    /** Sampled-request trace; null on the untraced path. */
    std::shared_ptr<obs::TraceSpan> trace;
    // Request state, kept for retransmission.
    core::ReqType type = core::ReqType::kRead;
    uint32_t handle = 0;
    uint64_t lba = 0;
    uint32_t sectors = 0;
    /** Caller memory: read only at send, written only when a read
     * resolves kOk (see IoSession's buffer contract). */
    uint8_t* data = nullptr;
    /** The newest transmission's payload, recycled on resolution. */
    core::Payload wire = {};
    int conn_index = 0;
    int attempts = 1;
    /**
     * Live timeout watchdog for the newest attempt. Cancelled the
     * moment the op resolves, so completed requests no longer leave a
     * dead timeout event in the simulator until it would have fired.
     */
    sim::TimerHandle watchdog = {};
  };

  bool retries_enabled() const {
    return options_.retry.request_timeout > 0;
  }
  /**
   * Opens the session connection pool if it is empty: num_connections
   * connections accepted directly onto `handle`'s dataplane thread.
   */
  bool EnsureSessionConnections(uint32_t handle, core::ReqStatus* status);
  sim::Future<IoResult> SubmitIo(core::ReqType type, uint32_t handle,
                                 uint64_t lba, uint32_t sectors,
                                 uint8_t* data, int conn_index);
  /**
   * The payload one transmission carries: null for timing-only I/O
   * (`data` null), a copy of the caller's bytes for a write, an
   * unfilled buffer for the device to fill for a read.
   */
  core::Payload WireBuffer(core::ReqType type, uint32_t sectors,
                           const uint8_t* data);
  /** Keeps a wire buffer of `sectors` for reuse by WireBuffer(). */
  void RecycleBuffer(uint32_t sectors, core::Payload buffer);
  void OnResponse(const core::ResponseMsg& resp);
  /** Capped exponential backoff before retransmission `attempt`. */
  sim::TimeNs BackoffDelay(int attempt) const;
  /** Schedules the timeout watchdog for (cookie, attempt). */
  void ArmTimeout(uint64_t cookie, int attempt, sim::TimeNs extra_delay);
  void OnTimeout(uint64_t cookie, int attempt);
  /** Resends the request for `cookie` after `delay`. */
  void Retransmit(uint64_t cookie, sim::TimeNs delay);
  /** Removes the unresolved op in `slot` of `ops_` (cookie `cookie`). */
  PendingOp TakeOp(uint64_t cookie, uint32_t slot);
  /** Resolves a pending op with a failure status. */
  void FailPending(PendingOp&& op, core::ReqStatus status);
  /** Re-establishes a reset/suspect connection in place. */
  void ReconnectConnection(int conn_index);

  sim::Simulator& sim_;
  core::ReflexServer& server_;
  net::Machine* machine_;
  Options options_;
  sim::Rng rng_;

  std::vector<core::ServerConnection*> connections_;
  /** Consecutive timeouts per connection (reconnect trigger). */
  std::vector<int> conn_timeouts_;
  int next_conn_ = 0;
  obs::TraceSampler sampler_;

  uint64_t next_cookie_ = 1;
  /** Unresolved I/O ops, in recycled slots. */
  sim::SlotPool<PendingOp> ops_;
  /** Cookie -> slot in ops_ of every unresolved op. */
  sim::FlatIndex pending_;
  /**
   * Wire buffers back from resolved ops, indexed by size in sectors
   * and reused newest first, so the payload copies stay cache-warm. A
   * buffer is reused only while this list holds its sole reference: a
   * request still in flight keeps its bytes to itself.
   */
  std::vector<std::vector<core::Payload>> spare_buffers_;
  std::map<uint64_t, sim::Promise<core::ResponseMsg>>
      pending_control_;

  FaultStats fault_stats_;
  std::function<void(uint32_t)> hint_listener_;
  uint64_t map_epoch_ = core::kMapEpochBypass;
  obs::Counter* timeouts_metric_ = nullptr;
  obs::Counter* retries_metric_ = nullptr;
  obs::Counter* failures_metric_ = nullptr;
};

}  // namespace reflex::client

#endif  // REFLEX_CLIENT_REFLEX_CLIENT_H_
