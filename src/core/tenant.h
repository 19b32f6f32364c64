#ifndef REFLEX_CORE_TENANT_H_
#define REFLEX_CORE_TENANT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "core/protocol.h"
#include "core/slo.h"
#include "sim/logging.h"
#include "sim/ring.h"
#include "sim/time.h"

namespace reflex::core {

class QosScheduler;
class ServerConnection;

/** A read/write request queued in a tenant's software queue. */
struct PendingIo {
  RequestMsg msg;
  ServerConnection* conn = nullptr;
  sim::TimeNs enqueue_time = 0;
  /** Token cost, priced at enqueue time (section 3.2.1). */
  double cost = 0.0;
  /**
   * Migration range gates this write was counted against at admission:
   * every copying gate it overlaps, all with ids in
   * [first_gate, last_gate] (-1 for ungated requests). Each one's
   * in-flight counter must be decremented exactly once, on completion
   * or failure, so neither a copy pass nor a drain mistakes the range
   * for quiesced while the write is still on its way to flash.
   */
  int first_gate = -1;
  int last_gate = -1;

  /** Trace span of a sampled request (null on the untraced path). */
  obs::TraceSpan* trace() const { return msg.trace.get(); }

  /** Timestamps `stage` if this request is being traced. */
  void MarkStage(obs::Stage stage, sim::TimeNs now) const {
    if (msg.trace) msg.trace->Mark(stage, now);
  }
};

/**
 * A tenant: the logical unit of SLO accounting (paper section 3.2).
 * One tenant may be shared by thousands of connections; each tenant is
 * served by exactly one dataplane thread (the paper's stated
 * implementation limit).
 */
class Tenant {
 public:
  Tenant(uint32_t handle, TenantClass cls, const SloSpec& slo)
      : handle_(handle), cls_(cls), slo_(slo) {}

  uint32_t handle() const { return handle_; }
  TenantClass cls() const { return cls_; }
  bool IsLatencyCritical() const {
    return cls_ == TenantClass::kLatencyCritical;
  }
  const SloSpec& slo() const { return slo_; }

  /** Dataplane thread index this tenant is bound to. */
  int thread_index() const { return thread_index_; }
  void set_thread_index(int idx) { thread_index_ = idx; }

  /**
   * Token generation rate (tokens/sec). For LC tenants this is the
   * SLO reservation, set by the control plane. For a BE tenant bound
   * to a scheduler it is the device-wide fair share of unallocated
   * throughput (SchedulerShared::be_token_rate), one value for every
   * BE tenant; set_token_rate does not override it while bound.
   */
  double token_rate() const {
    return shared_rate_ != nullptr ? *shared_rate_ : token_rate_;
  }
  void set_token_rate(double rate) { token_rate_ = rate; }

  /** Sum of priced costs of queued requests ("demand" in Alg. 1). */
  double queued_cost() const { return queued_cost_; }
  size_t queue_depth() const { return queue_.size(); }

  /** Current token balance (test/diagnostic visibility). */
  double tokens() const { return tokens_; }

  /** False once the tenant has been unregistered. */
  bool active() const { return active_; }
  void set_active(bool active) { active_ = active; }

  /**
   * Removes and returns all queued requests (unregistration path).
   * Only valid once the tenant is unbound: a bound tenant's queue is
   * counted by its scheduler.
   */
  sim::Ring<PendingIo> TakeQueue() {
    REFLEX_CHECK(scheduler_ == nullptr);
    queued_cost_ = 0.0;
    return std::exchange(queue_, sim::Ring<PendingIo>());
  }

  // --- Counters (server side) ---
  int64_t submitted_reads = 0;
  int64_t submitted_writes = 0;
  int64_t completed_reads = 0;
  int64_t completed_writes = 0;
  int64_t neg_limit_hits = 0;
  double tokens_spent = 0.0;
  /** I/Os submitted to the device and not yet completed (barriers). */
  int64_t inflight = 0;
  /** Payload bytes submitted to the device and not yet completed
   * (AdaptiveBePolicy's bufferbloat control). */
  int64_t inflight_bytes = 0;
  /** Total payload bytes of completed device I/Os. */
  int64_t completed_bytes = 0;
  /** Non-kOk responses sent on behalf of this tenant. */
  int64_t errors = 0;

 private:
  friend class QosScheduler;
  friend class QosPolicy;

  uint32_t handle_;
  TenantClass cls_;
  SloSpec slo_;
  int thread_index_ = -1;
  double token_rate_ = 0.0;
  bool active_ = true;

  // Scheduler state (owned by the tenant's thread scheduler).
  /** Scheduler this tenant is bound to (null while unbound). */
  const QosScheduler* scheduler_ = nullptr;
  /** BE tenants: slot in the scheduler's BE list and backlog bitmap. */
  size_t be_slot_ = 0;
  /** BE tenants: the shared fair share while bound. */
  const double* shared_rate_ = nullptr;
  double tokens_ = 0.0;
  sim::Ring<PendingIo> queue_;
  double queued_cost_ = 0.0;
  /** Tokens granted in the last 3 rounds: POS_LIMIT (section 3.2.2). */
  double grant_history_[3] = {0.0, 0.0, 0.0};
  int grant_cursor_ = 0;
};

}  // namespace reflex::core

#endif  // REFLEX_CORE_TENANT_H_
