#ifndef REFLEX_CORE_CONTROL_PLANE_H_
#define REFLEX_CORE_CONTROL_PLANE_H_

#include <coroutine>
#include <cstdint>
#include <map>
#include <vector>

#include "core/protocol.h"
#include "core/slo.h"
#include "core/tenant.h"
#include "sim/task.h"
#include "sim/time.h"

namespace reflex::core {

class ReflexServer;

/**
 * The local control plane (paper section 4.3). Responsibilities:
 *
 *  - admission control for new latency-critical tenants, using the
 *    calibrated latency-vs-token-rate curve of the device;
 *  - recomputing token generation rates for LC and BE tenants whenever
 *    a tenant registers or terminates;
 *  - handling NEG_LIMIT notifications from the scheduler (tenants that
 *    persistently burst above their SLO need renegotiation);
 *  - monitoring thread load and scaling the number of dataplane
 *    threads up/down, rebalancing tenants across threads.
 */
class ControlPlane {
 public:
  /**
   * Multiplier applied to the best-effort token share while the
   * control plane sheds load (device brownout or elevated error
   * rate). 0.1 keeps BE tenants barely alive so their queues drain
   * once the fault clears.
   */
  static constexpr double kBeShedFactor = 0.1;

  explicit ControlPlane(ReflexServer& server);
  ~ControlPlane();

  /**
   * Admission-checks and registers a tenant. For LC tenants the SLO is
   * admissible iff the sum of all LC token reservations (including the
   * new one) fits within the device's token rate at the strictest
   * latency SLO. Returns nullptr with *status = kOutOfResources on
   * rejection.
   */
  Tenant* TryRegister(const SloSpec& slo, TenantClass cls,
                      ReqStatus* status = nullptr);

  /** Unregisters a tenant and recomputes rates. */
  void Unregister(Tenant* tenant);

  /** Scheduler callback: an LC tenant hit its token deficit limit. */
  void OnNegLimit(Tenant& tenant);

  /**
   * Recomputes the device token cap (strictest LC SLO) and the per-
   * tenant token rates; called on registration changes and by tests.
   */
  void RecomputeRates();

  /** Current device-wide token generation cap (tokens/sec). */
  double scheduler_token_rate() const { return scheduler_token_rate_; }

  /** Strictest LC latency SLO, or 0 when no LC tenant exists. */
  sim::TimeNs strictest_slo() const { return strictest_slo_; }

  /** Total NEG_LIMIT notifications received (renegotiation signal). */
  int64_t neg_limit_notifications() const {
    return neg_limit_notifications_;
  }

  /** Tenants flagged for SLO renegotiation (persistent bursting). */
  const std::vector<uint32_t>& flagged_tenants() const {
    return flagged_tenants_;
  }

  /**
   * Grows or shrinks the active dataplane thread count and rebalances
   * tenants. Returns false if n is out of [1, max_threads].
   */
  bool ScaleTo(int n);

  /** Spreads tenants across active threads, balancing token load. */
  void RebalanceTenants();

  /**
   * Starts the periodic monitor that right-sizes the thread count
   * based on measured thread utilization (IX-style, section 4.3).
   */
  void StartMonitor();

  /**
   * Fault-plan notification: a device brownout window opened (active)
   * or closed. While any brownout is open the control plane sheds
   * best-effort load (token share scaled by kBeShedFactor) so LC
   * tenants keep their reservations on the degraded device.
   */
  void OnBrownout(bool active);

  /** True while BE load is being shed (brownout or error rate). */
  bool be_shed_active() const {
    return brownout_depth_ > 0 || error_shed_;
  }

  /**
   * Errors/sec for `handle` over the last monitor window (0 when the
   * monitor is not running or the tenant is unknown).
   */
  double TenantErrorRate(uint32_t handle) const;

 private:
  sim::Task MonitorLoop();
  int PickThreadForTenant() const;

  /**
   * Re-anchors the per-thread busy_ns baselines at the current stats.
   * Must be called when the active thread set changes (ScaleTo):
   * utilization deltas computed against baselines from a different
   * thread configuration misattribute a whole lifetime of busy time
   * to one window and trigger spurious scaling.
   */
  void ResetMonitorBaselines();

  /** Updates per-tenant error rates and the shed decision. */
  void UpdateErrorRates(sim::TimeNs window);

  ReflexServer& server_;
  /** Active LC tenants in registration order, and the active BE
   * count: all that admission and RecomputeRates read. */
  std::vector<Tenant*> lc_tenants_;
  int num_be_tenants_ = 0;
  double scheduler_token_rate_ = 0.0;
  sim::TimeNs strictest_slo_ = 0;
  int64_t neg_limit_notifications_ = 0;
  std::vector<uint32_t> flagged_tenants_;
  bool monitor_running_ = false;
  /** MonitorLoop frame. The loop never finishes (it is parked on its
   * Delay when the simulation ends), so the destructor must destroy
   * the suspended frame or it leaks. */
  std::coroutine_handle<> monitor_handle_;

  // Utilization snapshot state for the monitor.
  std::vector<sim::TimeNs> last_busy_ns_;
  sim::TimeNs last_monitor_time_ = 0;

  // Fault handling state.
  int brownout_depth_ = 0;
  bool error_shed_ = false;
  std::map<uint32_t, int64_t> last_tenant_errors_;
  std::map<uint32_t, double> tenant_error_rates_;
  int64_t last_total_errors_ = 0;
  int64_t last_total_responses_ = 0;
};

}  // namespace reflex::core

#endif  // REFLEX_CORE_CONTROL_PLANE_H_
