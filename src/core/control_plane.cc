#include "core/control_plane.h"

#include <algorithm>
#include <limits>

#include "core/reflex_server.h"
#include "sim/logging.h"

namespace reflex::core {

ControlPlane::ControlPlane(ReflexServer& server) : server_(server) {}

ControlPlane::~ControlPlane() {
  if (monitor_handle_) monitor_handle_.destroy();
}

Tenant* ControlPlane::TryRegister(const SloSpec& slo, TenantClass cls,
                                  ReqStatus* status) {
  auto set_status = [status](ReqStatus s) {
    if (status != nullptr) *status = s;
  };

  if (cls == TenantClass::kLatencyCritical) {
    if (slo.iops == 0 || slo.latency <= 0 || slo.read_fraction < 0.0 ||
        slo.read_fraction > 1.0) {
      set_status(ReqStatus::kOutOfResources);
      return nullptr;
    }
    // Admission control: with the new tenant included, the strictest
    // latency SLO determines the device token cap; all LC reservations
    // must fit within it.
    sim::TimeNs strictest = slo.latency;
    double lc_rate_sum =
        server_.cost_model().TokenRateForSlo(slo);
    for (const Tenant* t : lc_tenants_) {
      strictest = std::min(strictest, t->slo().latency);
      lc_rate_sum += t->token_rate();
    }
    const double cap =
        server_.calibration().MaxTokenRateForSlo(strictest);
    if (lc_rate_sum > cap) {
      set_status(ReqStatus::kOutOfResources);
      return nullptr;
    }
  }

  Tenant* tenant = server_.CreateTenant(slo, cls);
  const int thread_idx = PickThreadForTenant();
  server_.thread(thread_idx).AdoptTenant(tenant);
  if (tenant->IsLatencyCritical()) {
    lc_tenants_.push_back(tenant);
  } else {
    ++num_be_tenants_;
  }
  RecomputeRates();
  set_status(ReqStatus::kOk);
  return tenant;
}

void ControlPlane::Unregister(Tenant* tenant) {
  REFLEX_CHECK(tenant != nullptr);
  if (!tenant->active()) return;
  tenant->set_active(false);
  if (tenant->IsLatencyCritical()) {
    lc_tenants_.erase(
        std::find(lc_tenants_.begin(), lc_tenants_.end(), tenant));
  } else {
    --num_be_tenants_;
  }
  server_.thread(tenant->thread_index()).DropTenant(tenant);
  RecomputeRates();
}

void ControlPlane::OnNegLimit(Tenant& tenant) {
  ++neg_limit_notifications_;
  // Persistent bursting indicates an SLO that needs renegotiation
  // (paper section 3.2.2). Flag after a burst of notifications.
  if (tenant.neg_limit_hits == 100) {
    flagged_tenants_.push_back(tenant.handle());
  }
}

void ControlPlane::RecomputeRates() {
  // Token cap: the rate the device sustains at the strictest LC SLO;
  // without LC tenants, BE traffic may use full device capacity. Only
  // LC tenants are visited: every BE tenant reads the one shared BE
  // share, so registering N tenants costs O(N * LC), not O(N^2).
  sim::TimeNs strictest = std::numeric_limits<sim::TimeNs>::max();
  double lc_rate_sum = 0.0;
  for (Tenant* t : lc_tenants_) {
    strictest = std::min(strictest, t->slo().latency);
    const double rate = server_.cost_model().TokenRateForSlo(t->slo());
    t->set_token_rate(rate);
    lc_rate_sum += rate;
  }
  if (strictest == std::numeric_limits<sim::TimeNs>::max()) {
    strictest_slo_ = 0;
    scheduler_token_rate_ = server_.calibration().token_capacity_per_sec;
  } else {
    strictest_slo_ = strictest;
    scheduler_token_rate_ =
        server_.calibration().MaxTokenRateForSlo(strictest);
  }
  double be_share =
      num_be_tenants_ > 0
          ? std::max(0.0, scheduler_token_rate_ - lc_rate_sum) /
                num_be_tenants_
          : 0.0;
  // Shed best-effort load while the device is browned out or errors
  // are elevated: LC reservations are untouched, BE tenants are
  // throttled to a trickle until the fault clears.
  if (be_shed_active()) be_share *= server_.options().be_shed_factor;
  server_.shared().be_token_rate = be_share;
}

void ControlPlane::OnBrownout(bool active) {
  brownout_depth_ += active ? 1 : -1;
  if (brownout_depth_ < 0) brownout_depth_ = 0;
  RecomputeRates();
}

double ControlPlane::TenantErrorRate(uint32_t handle) const {
  auto it = tenant_error_rates_.find(handle);
  return it == tenant_error_rates_.end() ? 0.0 : it->second;
}

int ControlPlane::PickThreadForTenant() const {
  // Least-loaded active thread: fewest LC tenants first (LC load
  // dominates), then fewest tenants overall. O(threads) so that
  // registering thousands of tenants stays cheap.
  int best = 0;
  int best_lc = std::numeric_limits<int>::max();
  int best_count = std::numeric_limits<int>::max();
  for (int i = 0; i < server_.num_active_threads(); ++i) {
    const QosScheduler& sched = server_.thread(i).scheduler();
    const int lc = sched.NumLcTenants();
    const int count = sched.NumTenants();
    if (lc < best_lc || (lc == best_lc && count < best_count)) {
      best = i;
      best_lc = lc;
      best_count = count;
    }
  }
  return best;
}

bool ControlPlane::ScaleTo(int n) {
  if (n < 1 || n > server_.options().max_threads) return false;
  while (server_.num_active_threads() < n) {
    server_.AddThreadInternal();
  }
  if (server_.num_active_threads() > n) {
    // Shrink: move tenants off the highest-index threads, then stop
    // them. Threads are not destroyed (stats remain readable).
    for (int i = n; i < server_.num_active_threads(); ++i) {
      DataplaneThread& victim = server_.thread(i);
      for (Tenant* t : server_.tenants()) {
        if (t->active() && t->thread_index() == i) {
          victim.scheduler().RemoveTenant(t);
          const int target = i % n;
          server_.thread(target).AdoptTenant(t);
        }
      }
      victim.Shutdown();
    }
    server_.active_threads_ = n;
    server_.shared().num_threads = n;
    // Marks collected under the old thread count are meaningless for
    // the new quorum; start a fresh epoch (the grow path resets in
    // AddThreadInternal).
    server_.shared().ResetMarks();
  }
  RebalanceTenants();
  if (monitor_running_) ResetMonitorBaselines();
  return true;
}

void ControlPlane::RebalanceTenants() {
  const int n = server_.num_active_threads();
  if (n <= 1) return;
  // Greedy rebalance: assign tenants (largest reservation first) to
  // the least-loaded thread. Mirrors the connection rebalancing the
  // paper inherits from IX, at tenant granularity.
  std::vector<Tenant*> active;
  for (Tenant* t : server_.tenants()) {
    if (t->active()) active.push_back(t);
  }
  std::sort(active.begin(), active.end(), [](Tenant* a, Tenant* b) {
    if (a->token_rate() != b->token_rate()) {
      return a->token_rate() > b->token_rate();
    }
    return a->handle() < b->handle();
  });
  std::vector<double> load(n, 0.0);
  for (Tenant* t : active) {
    int best = 0;
    for (int i = 1; i < n; ++i) {
      if (load[i] < load[best]) best = i;
    }
    load[best] += std::max(t->token_rate(), 1.0);
    if (t->thread_index() != best) {
      server_.thread(t->thread_index()).scheduler().RemoveTenant(t);
      server_.thread(best).AdoptTenant(t);
    }
  }
}

void ControlPlane::StartMonitor() {
  if (monitor_running_) return;
  monitor_running_ = true;
  MonitorLoop();
}

void ControlPlane::ResetMonitorBaselines() {
  const int n = server_.num_threads();
  last_busy_ns_.assign(n, 0);
  for (int i = 0; i < n; ++i) {
    last_busy_ns_[i] = server_.thread(i).stats().busy_ns;
  }
  last_monitor_time_ = server_.sim().Now();
}

void ControlPlane::UpdateErrorRates(sim::TimeNs window) {
  const double window_sec = sim::ToSeconds(window);
  int64_t total_errors = 0;
  int64_t total_responses = 0;
  for (int i = 0; i < server_.num_threads(); ++i) {
    const DataplaneStats& s = server_.thread(i).stats();
    total_errors += s.error_responses;
    total_responses += s.responses_tx;
  }
  for (Tenant* t : server_.tenants()) {
    int64_t& last = last_tenant_errors_[t->handle()];
    const int64_t delta = t->errors - last;
    last = t->errors;
    tenant_error_rates_[t->handle()] =
        window_sec > 0.0 ? static_cast<double>(delta) / window_sec : 0.0;
  }
  const int64_t err_delta = total_errors - last_total_errors_;
  const int64_t resp_delta = total_responses - last_total_responses_;
  last_total_errors_ = total_errors;
  last_total_responses_ = total_responses;
  if (resp_delta <= 0) return;
  const double fraction =
      static_cast<double>(err_delta) / static_cast<double>(resp_delta);
  const double threshold = server_.options().error_shed_fraction;
  // Hysteresis: engage above the threshold, disengage below half of
  // it, so the shed decision does not flap around the boundary.
  if (!error_shed_ && fraction > threshold) {
    error_shed_ = true;
    RecomputeRates();
  } else if (error_shed_ && fraction < threshold / 2.0) {
    error_shed_ = false;
    RecomputeRates();
  }
}

sim::Task ControlPlane::MonitorLoop() {
  co_await sim::SelfHandle(&monitor_handle_);
  sim::Simulator& sim = server_.sim();
  ResetMonitorBaselines();
  for (;;) {
    co_await sim::Delay(sim, server_.options().monitor_interval);
    const sim::TimeNs now = sim.Now();
    const sim::TimeNs window = now - last_monitor_time_;
    last_monitor_time_ = now;
    if (window <= 0) continue;
    const int n = server_.num_active_threads();
    if (last_busy_ns_.size() < static_cast<size_t>(server_.num_threads())) {
      last_busy_ns_.resize(server_.num_threads(), 0);
    }
    UpdateErrorRates(window);
    double max_util = 0.0;
    double total_util = 0.0;
    for (int i = 0; i < n; ++i) {
      const sim::TimeNs busy = server_.thread(i).stats().busy_ns;
      const double util =
          static_cast<double>(busy - last_busy_ns_[i]) /
          static_cast<double>(window);
      last_busy_ns_[i] = busy;
      max_util = std::max(max_util, util);
      total_util += util;
    }
    if (max_util > server_.options().scale_up_utilization &&
        n < server_.options().max_threads) {
      ScaleTo(n + 1);
    } else if (n > 1 &&
               total_util / n < server_.options().scale_down_utilization) {
      ScaleTo(n - 1);
    }
  }
}

}  // namespace reflex::core
