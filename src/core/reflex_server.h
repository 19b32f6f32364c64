#ifndef REFLEX_CORE_REFLEX_SERVER_H_
#define REFLEX_CORE_REFLEX_SERVER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/access_control.h"
#include "core/control_plane.h"
#include "core/cost_model.h"
#include "core/dataplane.h"
#include "core/protocol.h"
#include "core/qos_scheduler.h"
#include "core/tenant.h"
#include "flash/calibration.h"
#include "flash/flash_device.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/simulator.h"
#include "sim/slot_pool.h"

namespace reflex::core {

/** Construction options for a ReFlex server. */
struct ServerOptions {
  /** Initial number of dataplane threads (cores). */
  int num_threads = 1;

  /** Upper bound for control-plane thread scaling. */
  int max_threads = 12;

  /** Enables the periodic load monitor / auto-scaler. */
  bool auto_scale = false;
  sim::TimeNs monitor_interval = sim::Millis(10);

  /** Adaptive batching cap per dataplane iteration (paper: 64). */
  int max_batch = 64;

  QosScheduler::Config qos;

  /** Enforce ACLs strictly (deny-by-default). */
  bool strict_acl = false;

  /**
   * Network transport for client connections. TCP is the paper's
   * conservative default; UDP is the lighter option it names as
   * future work -- less protocol processing per message, smaller
   * per-frame headers and almost no per-connection state.
   */
  net::Transport transport = net::Transport::kTcp;
};

/** Tenant handle reserved for control (tenant-unbound) connections. */
inline constexpr uint32_t kControlHandle = 0;

/**
 * Lifecycle of a migration range gate (DESIGN.md section 17). A gate
 * covers one shard-local sector range that is being migrated away:
 *
 *  - kCopying: the shard still owns the range. Reads and writes are
 *    admitted; each admitted write marks the gate dirty (the copied
 *    image is stale) and is counted in flight until its response is
 *    on the wire.
 *  - kDraining: cutover is imminent. New writes are refused with
 *    kWrongShard (clients back off and retry; the map flips before
 *    their retry budget runs out), reads still serve. The coordinator
 *    waits for in-flight writes to quiesce, recopies dirty stripes,
 *    then commits the map flip.
 *  - kMoved: the range now lives elsewhere. Requests stamped with a
 *    map epoch older than `min_epoch` get kWrongShard so stale routing
 *    can never touch pre-migration sectors; fresh epochs pass (the
 *    underlying sectors may have been reused for new placements).
 */
enum class RangeGateState : uint8_t { kCopying = 0, kDraining = 1, kMoved = 2 };

/** One migration gate over a shard-local sector range. */
struct RangeGate {
  uint64_t first_lba = 0;
  uint64_t sectors = 0;
  RangeGateState state = RangeGateState::kCopying;
  /** kMoved only: requests with map_epoch >= min_epoch pass. */
  uint64_t min_epoch = 0;
  /** A write landed in the range since the last copy pass. */
  bool dirty = false;
  /** Writes admitted under kCopying whose response is not yet sent. */
  int64_t inflight_writes = 0;

  bool Overlaps(uint64_t lba, uint32_t len) const {
    return lba < first_lba + sectors && lba + len > first_lba;
  }
};

/**
 * Result of ReflexServer::Accept(): the bound connection on success,
 * or a typed refusal (unknown/inactive tenant, ACL denial) with
 * `conn` null.
 */
struct AcceptResult {
  ServerConnection* conn = nullptr;
  ReqStatus status = ReqStatus::kOk;
};

/**
 * The ReFlex remote-Flash server: dataplane threads with exclusive
 * NVMe queue pairs, the QoS scheduler, access control, and the local
 * control plane, attached to one machine on the simulated network and
 * one Flash device.
 *
 * Two usage styles:
 *  - in-band: clients open control connections (Accept with
 *    kControlHandle) and send kRegister/kRead/kWrite protocol messages
 *    (what real ReFlex clients do);
 *  - out-of-band: benches pre-register tenants through RegisterTenant()
 *    and accept connections bound to the tenant's dataplane thread.
 */
class ReflexServer {
 public:
  ReflexServer(sim::Simulator& sim, net::Network& net,
               net::Machine* machine, flash::FlashDevice& device,
               const flash::CalibrationResult& calibration,
               ServerOptions options = ServerOptions());
  ~ReflexServer();

  ReflexServer(const ReflexServer&) = delete;
  ReflexServer& operator=(const ReflexServer&) = delete;

  // --- Tenant management (out-of-band path) ---
  Tenant* RegisterTenant(const SloSpec& slo, TenantClass cls,
                         ReqStatus* status = nullptr);
  bool UnregisterTenant(uint32_t handle);
  Tenant* FindTenant(uint32_t handle);

  // --- Connections ---
  /**
   * Accepts a connection from `client` on behalf of `tenant_handle`,
   * validating that the tenant exists, is active and that the ACL
   * permits the client; the connection lands directly on the tenant's
   * dataplane thread. kControlHandle accepts a tenant-unbound control
   * connection on a round-robin thread instead (no validation beyond
   * the machine; registration rights are checked in-band at kRegister
   * time). `on_response` fires when a response message has fully
   * arrived at the client NIC (the client library adds its stack
   * costs on top). Refusals are typed in the result, never silent
   * unbound connections.
   */
  AcceptResult Accept(net::Machine* client, uint32_t tenant_handle,
                      std::function<void(const ResponseMsg&)> on_response);

  int NumConnections() const { return static_cast<int>(connections_.size()); }

  // --- Accessors ---
  sim::Simulator& sim() { return sim_; }
  net::Network& network() { return net_; }
  net::Machine* machine() { return machine_; }
  flash::FlashDevice& device() { return device_; }
  const flash::CalibrationResult& calibration() const { return calibration_; }
  const RequestCostModel& cost_model() const { return cost_model_; }
  AccessControl& acl() { return acl_; }
  ControlPlane& control_plane() { return *control_plane_; }
  SchedulerShared& shared() { return shared_; }
  const ServerOptions& options() const { return options_; }

  /**
   * Attaches a fault-injection plan (null detaches). Dataplane threads
   * roll kServerDeviceError / kServerOutOfResources per request, and
   * kFlashBrownout windows notify the control plane so it can shed
   * best-effort load for the duration. The flash device and network
   * must be wired separately (they are independent subsystems).
   */
  void SetFaultPlan(sim::FaultPlan* plan);
  sim::FaultPlan* fault_plan() const { return fault_plan_; }

  int num_threads() const { return static_cast<int>(threads_.size()); }
  int num_active_threads() const { return active_threads_; }
  DataplaneThread& thread(int i) { return *threads_[i]; }

  /** Sum of per-thread stats. */
  DataplaneStats AggregateStats() const;

  // --- Observability ---
  /** Metric registry shared by the scheduler, device and network. */
  obs::MetricsRegistry& metrics() { return metrics_; }

  /** Sink for finished per-request trace spans. */
  obs::TraceCollector& tracer() { return tracer_; }

  /**
   * Publishes point-in-time state that is not maintained incrementally
   * -- per-thread cycle accounting and per-tenant counters/gauges --
   * into the registry, then returns it. Call before exporting.
   */
  obs::MetricsRegistry& SnapshotMetrics();

  /** All registered tenants (including unregistered zombies). */
  const std::vector<Tenant*>& tenants() const { return tenant_list_; }

  // --- Migration range gates (driven by cluster::MigrationCoordinator) ---
  /** Installs a kCopying gate over [first_lba, first_lba+sectors). */
  int AddRangeGate(uint64_t first_lba, uint64_t sectors);
  /** Returns the gate, or null if already removed. */
  RangeGate* FindRangeGate(int id);
  void RemoveRangeGate(int id);
  bool HasRangeGates() const { return !range_gates_.empty(); }

  /**
   * Gate admission for one parsed request (dataplane parse step),
   * against every gate the request overlaps: one write extent may
   * span several migrating stripes. Returns kWrongShard if any gate's
   * epoch floor rejects the request or, for a write, any overlapped
   * gate is draining. An admitted write marks every overlapped
   * kCopying gate dirty and is counted in flight once, on the first of
   * them, whose id goes to *counted_gate (else -1). Requests stamped
   * with the bypass epoch skip gating entirely (single-server clients
   * and the migration coordinator's own copy traffic).
   */
  ReqStatus CheckRangeGates(const RequestMsg& msg, int* counted_gate);

  /** Decrements the in-flight count of a still-installed gate. */
  void OnGatedIoDone(int gate_id);

  /** Requests parked between client submit and dataplane parse. */
  size_t parked_requests() const { return parked_requests_.live(); }

 private:
  friend class ControlPlane;
  friend class DataplaneThread;
  friend class ServerConnection;

  /** Creates and starts one more dataplane thread. */
  DataplaneThread* AddThreadInternal();

  /** Allocates a tenant object (no admission check; control plane). */
  Tenant* CreateTenant(const SloSpec& slo, TenantClass cls);

  /** In-band protocol handling (called by dataplane threads). */
  ResponseMsg HandleRegisterMsg(ServerConnection* conn,
                                const RequestMsg& msg);

  sim::Simulator& sim_;
  net::Network& net_;
  net::Machine* machine_;
  flash::FlashDevice& device_;
  flash::CalibrationResult calibration_;
  ServerOptions options_;
  RequestCostModel cost_model_;
  SchedulerShared shared_;
  AccessControl acl_;

  // Declared before threads_: dataplane threads cache metric handles
  // out of the registry at construction time.
  obs::MetricsRegistry metrics_;
  obs::TraceCollector tracer_;

  std::vector<std::unique_ptr<DataplaneThread>> threads_;
  int active_threads_ = 0;

  /** Every tenant ever created, in handle order: handle h is at
   * index h - 1 (handles are dense and never reused). */
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::vector<Tenant*> tenant_list_;

  /** Requests in transit from a client to the dataplane; see
   * ServerConnection::Park(). */
  sim::SlotPool<RequestMsg> parked_requests_;

  std::vector<std::unique_ptr<ServerConnection>> connections_;
  size_t next_conn_thread_ = 0;

  std::unique_ptr<ControlPlane> control_plane_;
  sim::FaultPlan* fault_plan_ = nullptr;
  bool brownout_listener_added_ = false;

  int next_gate_id_ = 0;
  std::map<int, RangeGate> range_gates_;
};

}  // namespace reflex::core

#endif  // REFLEX_CORE_REFLEX_SERVER_H_
