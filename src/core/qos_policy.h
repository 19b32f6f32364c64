#ifndef REFLEX_CORE_QOS_POLICY_H_
#define REFLEX_CORE_QOS_POLICY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/tenant.h"
#include "sim/histogram.h"
#include "sim/time.h"

namespace reflex::core {

struct SchedulerShared;

/** Selects the tail-SLO enforcement algorithm run by QosScheduler. */
enum class QosPolicyKind : uint8_t {
  /** ReFlex Algorithm 1: per-tenant token buckets with NEG_LIMIT
   * bursting, POS_LIMIT donation and a global best-effort bucket. */
  kTokenBucket = 0,
  /**
   * QWin-style window enforcement: each LC tenant's SLO is divided
   * into time windows and the per-window quota is sized from the
   * observed queue backlog and the reserved service rate, instead of
   * dripping tokens continuously. Best-effort tenants keep the
   * token-bucket mechanics (fair share + global-bucket claims).
   */
  kQwin = 1,
  /**
   * Algorithm 1 for LC tenants plus bufferbloat control for BE
   * tenants: BE inflight bytes are capped by the service rate
   * measured per round (EWMA) times a drain target, instead of
   * relying on static limits to keep device queues shallow.
   */
  kAdaptiveBe = 2,
};

const char* QosPolicyKindName(QosPolicyKind kind);

/** Parses a policy name ("token_bucket", "qwin", "adaptive_be").
 * Returns false (and leaves *out alone) for unknown names. */
bool QosPolicyKindFromName(const std::string& name, QosPolicyKind* out);

/**
 * Per-thread QoS scheduler configuration: the NEG_LIMIT burst bound,
 * the enforcement switch and the algorithm. Each policy owns its own
 * constants. Exposed as QosScheduler::Config for compatibility.
 */
struct QosConfig {
  /** Token deficit at which an LC tenant is rate-limited. */
  double neg_limit = -50.0;

  /**
   * When false, the scheduler becomes a pass-through FIFO (requests
   * submit immediately, no rate limiting) -- the "I/O sched
   * disabled" configuration of the paper's Figure 5.
   */
  bool enforce = true;

  /** Which enforcement algorithm runs when `enforce` is true. */
  QosPolicyKind policy = QosPolicyKind::kTokenBucket;
};

/** Invoked when an LC tenant hits NEG_LIMIT (SLO renegotiation). */
using NegLimitFn = std::function<void(Tenant&)>;

/**
 * Totals of one scheduler thread, published by
 * ReflexServer::SnapshotMetrics as the sched_* metrics. The scheduler
 * and its policy add to them.
 */
struct SchedulerCounters {
  double tokens_generated = 0.0;
  double tokens_spent = 0.0;
  double tokens_donated = 0.0;
  double tokens_claimed = 0.0;
  int64_t neg_limit_hits = 0;
  int64_t requests_submitted = 0;
  /** Gap between consecutive scheduling rounds (ns). */
  sim::Histogram round_gap_ns;
};

/**
 * State a policy is allowed to touch, owned by its QosScheduler. The
 * pointers target scheduler members, so late wiring
 * (set_neg_limit_callback) is visible to the policy without re-binding.
 */
struct QosPolicyContext {
  SchedulerShared* shared = nullptr;
  const QosConfig* config = nullptr;
  SchedulerCounters* counters = nullptr;
  const NegLimitFn* on_neg_limit = nullptr;
};

/**
 * One tail-SLO enforcement algorithm, driven by QosScheduler once per
 * scheduling round. The scheduler owns the mechanism that is common to
 * every algorithm -- tenant lists, request pricing, barrier ordering,
 * spend accounting, the round-robin rotation and the end-of-round
 * global-bucket reset epoch -- and delegates the per-round policy
 * decisions to these hooks:
 *
 *   BeginRound        once per round, before any tenant is served
 *   AccrueLc/AccrueBe per tenant: token/quota generation (and, for BE,
 *                     the global-bucket claim)
 *   AdmitLc/AdmitBe   per queued request: may the front submit?
 *   FinishLc/FinishBe per tenant, after its service loop: donation /
 *                     spill / anti-hoarding reset
 *   CreditIdleBe      once per run of idle BE tenants, in place of
 *                     their AccrueBe/FinishBe visits
 *   OnSubmit          after a request was granted (spend already
 *                     booked), for policies tracking inflight state
 *
 * Invariant contract: every token credited to a tenant balance MUST be
 * recorded in shared->tokens_generated_total, and every token removed
 * other than by a spend MUST flow through the global bucket (donate)
 * or the discard/retire counters -- the simtest conservation probes
 * hold for every policy, not just the token bucket.
 */
class QosPolicy {
 public:
  explicit QosPolicy(const QosPolicyContext& ctx) : ctx_(ctx) {}
  virtual ~QosPolicy() = default;

  QosPolicy(const QosPolicy&) = delete;
  QosPolicy& operator=(const QosPolicy&) = delete;

  virtual QosPolicyKind kind() const = 0;
  const char* name() const { return QosPolicyKindName(kind()); }

  /** Round prologue; `lc` / `be` are the tenants bound to this
   * scheduler thread, in service order. */
  virtual void BeginRound(sim::TimeNs /*now*/, double /*dt*/,
                          const std::vector<Tenant*>& /*lc*/,
                          const std::vector<Tenant*>& /*be*/) {}

  virtual void AccrueLc(Tenant& t, sim::TimeNs now, double dt) = 0;
  virtual bool AdmitLc(const Tenant& t, const PendingIo& io) const = 0;
  virtual void FinishLc(Tenant& /*t*/) {}

  virtual void AccrueBe(Tenant& t, sim::TimeNs now, double dt) = 0;
  virtual bool AdmitBe(const Tenant& t, const PendingIo& io) const = 0;
  virtual void FinishBe(Tenant& /*t*/) {}

  /**
   * Credits `count` idle BE tenants (empty queue, zero balance) that
   * the round skips instead of visiting. Must leave the global bucket
   * exactly where AccrueBe + FinishBe on each of them would, since the
   * scheduler calls it at the point of the rotation where those visits
   * would have happened.
   */
  virtual void CreditIdleBe(int64_t count, double dt) = 0;

  /** A request of tenant `t` was granted and handed to the device. */
  virtual void OnSubmit(Tenant& /*t*/, const PendingIo& /*io*/) {}

  /** Tenant (un)binding: maintain per-tenant policy state. */
  virtual void OnAddTenant(Tenant& /*t*/) {}
  virtual void OnRemoveTenant(Tenant& /*t*/) {}

 protected:
  // Tenant scheduler state is private to the scheduler/policy pair;
  // friendship does not extend to subclasses, so the base class
  // brokers access for every policy implementation.
  static double& TokensOf(Tenant& t) { return t.tokens_; }
  static double TokensOf(const Tenant& t) { return t.tokens_; }
  static double QueuedCostOf(const Tenant& t) { return t.queued_cost_; }
  static double* GrantHistoryOf(Tenant& t) { return t.grant_history_; }
  static int& GrantCursorOf(Tenant& t) { return t.grant_cursor_; }

  QosPolicyContext ctx_;
};

/**
 * ReFlex Algorithm 1 (the paper's scheduler), bit-for-bit the behavior
 * QosScheduler had before the policy split: LC tenants burst to
 * NEG_LIMIT and donate surplus above POS_LIMIT; BE tenants run
 * deficit-round-robin over their fair share plus global-bucket claims.
 */
class TokenBucketPolicy : public QosPolicy {
 public:
  /** Fraction of surplus above POS_LIMIT donated to the bucket. */
  static constexpr double kDonateFraction = 0.9;

  explicit TokenBucketPolicy(const QosPolicyContext& ctx)
      : QosPolicy(ctx) {}

  QosPolicyKind kind() const override {
    return QosPolicyKind::kTokenBucket;
  }

  void AccrueLc(Tenant& t, sim::TimeNs now, double dt) override;
  bool AdmitLc(const Tenant& t, const PendingIo& io) const override;
  void FinishLc(Tenant& t) override;

  void AccrueBe(Tenant& t, sim::TimeNs now, double dt) override;
  bool AdmitBe(const Tenant& t, const PendingIo& io) const override;
  void FinishBe(Tenant& t) override;
  void CreditIdleBe(int64_t count, double dt) override;

 protected:
  /** Shared accrual: rate * dt into the balance + conservation ledger. */
  double GenerateTokens(Tenant& t, double dt);
};

/**
 * QWin-style window-based enforcement (PAPERS.md: "QWin: Enforcing
 * Tail Latency SLO at Shared Storage Backend"). Each LC tenant's SLO
 * is divided into windows of `kWindowFraction * slo.latency`; at
 * every window open the quota is sized from observed queue state:
 *
 *   quota = min(backlog + share, kBurstCap * share)
 *   share = token_rate * window_seconds
 *
 * so a backlogged tenant gets exactly the budget needed to drain
 * within the window (bounded by the burst cap), while an idle tenant
 * cannot hoard: unspent quota is donated to the global bucket when
 * the window closes. Best-effort tenants inherit the token-bucket
 * mechanics unchanged.
 */
class QwinPolicy : public TokenBucketPolicy {
 public:
  explicit QwinPolicy(const QosPolicyContext& ctx)
      : TokenBucketPolicy(ctx) {}

  QosPolicyKind kind() const override { return QosPolicyKind::kQwin; }

  void AccrueLc(Tenant& t, sim::TimeNs now, double dt) override;
  bool AdmitLc(const Tenant& t, const PendingIo& io) const override;
  void FinishLc(Tenant& t) override;
  void OnRemoveTenant(Tenant& t) override;

  /** Windows opened so far (test/bench visibility). */
  int64_t windows_opened() const { return windows_opened_; }

 private:
  struct Window {
    sim::TimeNs end = 0;
  };

  sim::TimeNs WindowLength(const Tenant& t) const;

  // Keyed by tenant handle; std::map for deterministic iteration.
  std::map<uint32_t, Window> windows_;
  int64_t windows_opened_ = 0;
};

/**
 * Algorithm 1 with adaptive best-effort queue-depth control
 * (PAPERS.md: "Managing Bufferbloat in Cloud Storage Systems"). The
 * policy measures the best-effort service rate from completed bytes
 * per round (EWMA-smoothed) and admits BE requests only while
 *
 *   inflight BE bytes + request bytes <= max(kMinCapBytes,
 *                                            rate * kDrainTarget)
 *
 * so BE inflight tracks what the device actually drains within the
 * target, instead of a static limit that bloats device queues under
 * load shifts. LC behavior is identical to TokenBucketPolicy.
 */
class AdaptiveBePolicy : public TokenBucketPolicy {
 public:
  /** Target drain time for best-effort bytes queued at the device. */
  static constexpr sim::TimeNs kDrainTarget = sim::Micros(500);

  /** EWMA smoothing for the measured BE service rate (0..1]. */
  static constexpr double kRateAlpha = 0.2;

  explicit AdaptiveBePolicy(const QosPolicyContext& ctx)
      : TokenBucketPolicy(ctx) {}

  QosPolicyKind kind() const override {
    return QosPolicyKind::kAdaptiveBe;
  }

  void BeginRound(sim::TimeNs now, double dt,
                  const std::vector<Tenant*>& lc,
                  const std::vector<Tenant*>& be) override;
  bool AdmitBe(const Tenant& t, const PendingIo& io) const override;
  void OnSubmit(Tenant& t, const PendingIo& io) override;
  void OnAddTenant(Tenant& t) override;
  void OnRemoveTenant(Tenant& t) override;

  /** Current BE inflight cap / measured rate (test/bench visibility). */
  int64_t cap_bytes() const { return cap_bytes_; }
  double service_rate_bytes_per_sec() const { return rate_; }

 private:
  /** EWMA of BE bytes completed per second. */
  double rate_ = 0.0;
  bool rate_primed_ = false;
  int64_t cap_bytes_ = 0;
  /** Sum of BE tenants' completed_bytes at the last round. */
  int64_t last_completed_total_ = 0;
  /** BE bytes at the device, snapshotted per round and advanced by
   * OnSubmit within the round. */
  int64_t inflight_be_bytes_ = 0;
};

/** Builds the policy selected by ctx.config->policy. */
std::unique_ptr<QosPolicy> MakeQosPolicy(const QosPolicyContext& ctx);

}  // namespace reflex::core

#endif  // REFLEX_CORE_QOS_POLICY_H_
