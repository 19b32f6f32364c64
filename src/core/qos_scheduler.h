#ifndef REFLEX_CORE_QOS_SCHEDULER_H_
#define REFLEX_CORE_QOS_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost_model.h"
#include "core/qos_policy.h"
#include "core/tenant.h"
#include "core/token_bucket.h"
#include "sim/inline_function.h"
#include "sim/time.h"

namespace reflex::core {

/**
 * Scheduler state shared across all dataplane threads serving one
 * Flash device: the global token bucket, the device-wide read-ratio
 * tracker, and the bucket-reset coordination ("the last thread resets
 * the global bucket", section 4.1). One instance per device.
 */
struct SchedulerShared {
  GlobalTokenBucket global_bucket;
  ReadRatioTracker read_ratio;

  /** Number of threads participating in bucket-reset coordination. */
  int num_threads = 1;

  /** Threads that completed >= 1 round since the last reset. */
  std::atomic<int> threads_marked{0};
  std::atomic<uint64_t> reset_epoch{0};

  /**
   * Discards all marks and starts a fresh epoch. Must be called
   * whenever num_threads changes (scale up or down): marks collected
   * under the old thread count would otherwise trigger the global
   * bucket reset too early or hold it back past the new quorum.
   */
  void ResetMarks() {
    threads_marked.store(0, std::memory_order_release);
    reset_epoch.fetch_add(1, std::memory_order_acq_rel);
  }

  /**
   * Token rate (tokens/sec) of every best-effort tenant on this device:
   * the fair share of the throughput LC reservations leave unallocated.
   * Written by ControlPlane::RecomputeRates; read through
   * Tenant::token_rate() and by the scheduler's idle-run credit. One
   * value instead of one per tenant is what lets a scheduling round
   * credit a run of idle BE tenants in one step.
   */
  double be_token_rate = 0.0;

  /** Cumulative tokens spent across all threads (Figure 6a metric). */
  double tokens_spent_total = 0.0;

  /**
   * Conservation ledger (simtest invariant probes). Every token enters
   * the system through generation and leaves through a spend, a bucket
   * reset, or a tenant retiring with a non-zero balance; transfers
   * (donate/claim) move tokens between tenant balances and the global
   * bucket without creating or destroying any. The invariant
   *
   *   generated == spent + discarded + retired
   *               + sum(active tenant balances) + bucket balance
   *
   * holds to within fixed-point rounding and is checked by
   * simtest::CheckServerInvariants after every harness run -- for
   * every QosPolicy, including pass-through mode.
   */
  double tokens_generated_total = 0.0;
  double tokens_donated_total = 0.0;
  double tokens_claimed_total = 0.0;
  /** Tokens thrown away by the periodic global-bucket reset. */
  double tokens_discarded_total = 0.0;
  /** Balances (positive or negative) of unregistered tenants. */
  double tokens_retired_total = 0.0;
};

/**
 * Per-thread QoS scheduler. The scheduler owns the mechanism shared by
 * every enforcement algorithm -- tenant binding, request pricing and
 * queueing, barrier ordering, spend accounting, the best-effort
 * round-robin rotation and the end-of-round global-bucket reset epoch
 * -- and delegates per-round policy decisions (token/quota accrual,
 * admission, donation) to a QosPolicy selected by Config::policy.
 *
 * The default TokenBucketPolicy implements Algorithm 1 of the paper:
 * latency-critical tenants are served first with burst limits
 * (NEG_LIMIT) and donation of surplus above POS_LIMIT; best-effort
 * tenants are served deficit-round-robin style from their fair share
 * plus the global token bucket.
 */
class QosScheduler {
 public:
  /** See QosConfig (core/qos_policy.h) for the knobs. */
  using Config = QosConfig;

  /** Submits one admissible request to the Flash device. */
  using SubmitFn = sim::InlineFunction<void(Tenant&, PendingIo&&)>;

  QosScheduler(SchedulerShared& shared, const RequestCostModel& cost_model,
               Config config);

  QosScheduler(SchedulerShared& shared, const RequestCostModel& cost_model)
      : QosScheduler(shared, cost_model, Config{}) {}

  /** Binds / unbinds a tenant to this thread's scheduler. */
  void AddTenant(Tenant* tenant);
  void RemoveTenant(Tenant* tenant);

  /**
   * Prices and queues a request in its tenant's software queue.
   * `now` is needed to consult the device read-ratio tracker.
   */
  void Enqueue(sim::TimeNs now, Tenant* tenant, PendingIo io);

  /**
   * Runs one scheduling round under the configured policy. Returns the
   * number of requests submitted via `submit`.
   */
  int RunRound(sim::TimeNs now, const SubmitFn& submit);

  /** True if any tenant on this thread has queued requests. O(1). */
  bool HasPendingDemand() const { return queued_requests_ > 0; }

  /** Requests queued across every tenant bound to this thread. O(1). */
  int64_t QueuedRequests() const { return queued_requests_; }

  /** Number of tenants bound to this scheduler. */
  int NumTenants() const {
    return static_cast<int>(lc_tenants_.size() + be_tenants_.size());
  }
  int NumLcTenants() const { return static_cast<int>(lc_tenants_.size()); }
  int NumBeTenants() const { return static_cast<int>(be_tenants_.size()); }

  void set_neg_limit_callback(NegLimitFn fn) {
    on_neg_limit_ = std::move(fn);
  }

  /** This thread's totals (the sched_* metrics). */
  const SchedulerCounters& counters() const { return counters_; }

  const RequestCostModel& cost_model() const { return cost_model_; }

  /** The enforcement policy this scheduler runs (diagnostics/tests). */
  const QosPolicy& policy() const { return *policy_; }
  QosPolicy& policy() { return *policy_; }

 private:
  /** True if t's queue head is a barrier still waiting on in-flight
   * I/Os (paper section 4.1's ordering extension). */
  static bool FrontBlockedByBarrier(const Tenant& t);
  void SubmitFront(sim::TimeNs now, Tenant& t, const SubmitFn& submit);
  void MarkRoundComplete();

  /** Serves BE tenants in rotation order, crediting idle runs. */
  int RunBeRound(sim::TimeNs now, double dt, const SubmitFn& submit);

  /** Backlog bitmap over be_tenants_ slots. */
  bool Backlogged(size_t slot) const {
    return (be_backlog_[slot / 64] >> (slot % 64)) & 1;
  }
  void SetBacklogged(size_t slot) {
    be_backlog_[slot / 64] |= uint64_t{1} << (slot % 64);
  }
  /** Clears the bit of a BE tenant whose queue has emptied. */
  void ClearBacklogged(const Tenant& t);
  /** First backlogged slot in [from, end), or `end` if none. */
  size_t NextBacklogged(size_t from, size_t end) const;
  /** Recomputes slots and the bitmap from be_tenants_. */
  void RebuildBeSlots();

  SchedulerShared& shared_;
  const RequestCostModel& cost_model_;
  Config config_;
  SchedulerCounters counters_;
  NegLimitFn on_neg_limit_;

  /** Built from config_.policy; holds pointers into this scheduler
   * (shared_, config_, counters_, on_neg_limit_), so it must be
   * declared after them and die first. */
  std::unique_ptr<QosPolicy> policy_;

  std::vector<Tenant*> lc_tenants_;
  std::vector<Tenant*> be_tenants_;
  /**
   * One bit per be_tenants_ slot, set iff that tenant's queue is
   * non-empty. A clear bit means the tenant is idle: empty queue, zero
   * balance and zero queued cost, so its whole round is "generate
   * rate * dt, donate it" and the walk credits it without visiting it.
   */
  std::vector<uint64_t> be_backlog_;
  size_t be_cursor_ = 0;
  /** Sum of queue_depth() over every bound tenant. */
  int64_t queued_requests_ = 0;

  sim::TimeNs prev_round_time_ = 0;
  bool has_run_ = false;
  uint64_t local_epoch_ = 0;
  bool marked_this_epoch_ = false;
};

}  // namespace reflex::core

#endif  // REFLEX_CORE_QOS_SCHEDULER_H_
