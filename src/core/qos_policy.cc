#include "core/qos_policy.h"

#include <algorithm>
#include <cmath>

#include "core/protocol.h"
#include "core/qos_scheduler.h"
#include "sim/logging.h"

namespace reflex::core {

const char* QosPolicyKindName(QosPolicyKind kind) {
  switch (kind) {
    case QosPolicyKind::kTokenBucket:
      return "token_bucket";
    case QosPolicyKind::kQwin:
      return "qwin";
    case QosPolicyKind::kAdaptiveBe:
      return "adaptive_be";
  }
  return "unknown";
}

bool QosPolicyKindFromName(const std::string& name, QosPolicyKind* out) {
  REFLEX_CHECK(out != nullptr);
  if (name == "token_bucket") {
    *out = QosPolicyKind::kTokenBucket;
  } else if (name == "qwin") {
    *out = QosPolicyKind::kQwin;
  } else if (name == "adaptive_be") {
    *out = QosPolicyKind::kAdaptiveBe;
  } else {
    return false;
  }
  return true;
}

// --- TokenBucketPolicy (Algorithm 1) ---

double TokenBucketPolicy::GenerateTokens(Tenant& t, double dt) {
  const double gen = t.token_rate() * dt;
  TokensOf(t) += gen;
  ctx_.shared->tokens_generated_total += gen;
  ctx_.counters->tokens_generated += gen;
  return gen;
}

void TokenBucketPolicy::AccrueLc(Tenant& t, sim::TimeNs /*now*/, double dt) {
  const double gen = GenerateTokens(t, dt);
  GrantHistoryOf(t)[GrantCursorOf(t)] = gen;
  GrantCursorOf(t) = (GrantCursorOf(t) + 1) % 3;

  if (TokensOf(t) < ctx_.config->neg_limit) {
    ++t.neg_limit_hits;
    ++ctx_.counters->neg_limit_hits;
    if (*ctx_.on_neg_limit) (*ctx_.on_neg_limit)(t);
  }
}

bool TokenBucketPolicy::AdmitLc(const Tenant& t,
                                const PendingIo& /*io*/) const {
  return TokensOf(t) > ctx_.config->neg_limit;
}

void TokenBucketPolicy::FinishLc(Tenant& t) {
  const double* hist = GrantHistoryOf(t);
  const double pos_limit = hist[0] + hist[1] + hist[2];
  if (TokensOf(t) > pos_limit) {
    // Alg. 1 lines 13-15: only the *excess above POS_LIMIT* is
    // donated (scaled by kDonateFraction); the tenant keeps its full
    // burst allowance. Donating a fraction of the whole balance --
    // the previous behavior -- pulled the balance below POS_LIMIT
    // and eroded the very burst headroom POS_LIMIT exists to
    // protect (pinned by QosSchedulerTest.LcDonatesOnlyExcess...).
    const double spill = (TokensOf(t) - pos_limit) * kDonateFraction;
    ctx_.shared->global_bucket.Donate(spill);
    TokensOf(t) -= spill;
    ctx_.shared->tokens_donated_total += spill;
    ctx_.counters->tokens_donated += spill;
  }
}

void TokenBucketPolicy::AccrueBe(Tenant& t, sim::TimeNs /*now*/, double dt) {
  GenerateTokens(t, dt);
  const double deficit = QueuedCostOf(t) - TokensOf(t);
  if (deficit > 0.0) {
    const double claimed = ctx_.shared->global_bucket.TryClaim(deficit);
    TokensOf(t) += claimed;
    ctx_.shared->tokens_claimed_total += claimed;
    ctx_.counters->tokens_claimed += claimed;
  }
}

bool TokenBucketPolicy::AdmitBe(const Tenant& t, const PendingIo& io) const {
  return TokensOf(t) >= io.cost;
}

void TokenBucketPolicy::FinishBe(Tenant& t) {
  if (TokensOf(t) > 0.0 && t.queue_depth() == 0) {
    // DRR-style: idle BE tenants may not hoard tokens.
    ctx_.shared->global_bucket.Donate(TokensOf(t));
    ctx_.shared->tokens_donated_total += TokensOf(t);
    ctx_.counters->tokens_donated += TokensOf(t);
    TokensOf(t) = 0.0;
  }
}

void TokenBucketPolicy::CreditIdleBe(int64_t count, double dt) {
  // An idle tenant's visit: AccrueBe generates gen = rate * dt onto a
  // zero balance, its deficit (0 - gen) claims nothing, and FinishBe
  // donates all of gen. Every BE tenant shares one rate, so the run
  // donates `count` equal amounts; DonateEach rounds each to
  // micro-tokens on its own, leaving the bucket's integer state where
  // `count` visits would. Only the float ledgers and counters add
  // count * gen in one step instead of `count` steps.
  const double gen = ctx_.shared->be_token_rate * dt;
  if (gen <= 0.0) return;
  const double total = static_cast<double>(count) * gen;
  ctx_.shared->tokens_generated_total += total;
  ctx_.shared->global_bucket.DonateEach(gen, count);
  ctx_.shared->tokens_donated_total += total;
  ctx_.counters->tokens_generated += total;
  ctx_.counters->tokens_donated += total;
}

// --- QwinPolicy (window-sized quotas for LC tenants) ---

namespace {

/** Window length as a fraction of the tenant's latency SLO. */
constexpr double kWindowFraction = 0.5;

/** Window length for tenants without a latency SLO. */
constexpr sim::TimeNs kDefaultWindow = sim::Micros(500);

/** Per-window quota cap, as a multiple of the reserved share. */
constexpr double kBurstCap = 2.0;

}  // namespace

sim::TimeNs QwinPolicy::WindowLength(const Tenant& t) const {
  if (t.slo().latency <= 0) return kDefaultWindow;
  const double ns = kWindowFraction * static_cast<double>(t.slo().latency);
  return std::max<sim::TimeNs>(1, std::llround(ns));
}

void QwinPolicy::AccrueLc(Tenant& t, sim::TimeNs now, double /*dt*/) {
  Window& w = windows_[t.handle()];
  if (now < w.end) return;  // current window still open

  // Window rollover. Unspent quota is donated, not carried: carrying
  // it over would let an idle tenant accumulate a burst that defeats
  // the window sizing (QWin's anti-hoarding rule).
  const double leftover = TokensOf(t);
  if (leftover > 0.0) {
    ctx_.shared->global_bucket.Donate(leftover);
    ctx_.shared->tokens_donated_total += leftover;
    ctx_.counters->tokens_donated += leftover;
    TokensOf(t) = 0.0;
  }

  // Quota for the new window: enough to drain the observed backlog
  // plus the reserved share for the window, capped at kBurstCap
  // shares. A negative balance (debt from the previous window's
  // overdraw) is paid back out of the new quota automatically since
  // the grant lands on top of it.
  const sim::TimeNs len = WindowLength(t);
  const double share = t.token_rate() * sim::ToSeconds(len);
  const double quota = std::min(QueuedCostOf(t) + share, kBurstCap * share);
  TokensOf(t) += quota;
  ctx_.shared->tokens_generated_total += quota;
  ctx_.counters->tokens_generated += quota;

  // Track the per-window grant so diagnostics (tenant grant history)
  // stay meaningful under this policy too.
  GrantHistoryOf(t)[GrantCursorOf(t)] = quota;
  GrantCursorOf(t) = (GrantCursorOf(t) + 1) % 3;

  w.end = now + len;
  ++windows_opened_;
}

bool QwinPolicy::AdmitLc(const Tenant& t, const PendingIo& /*io*/) const {
  // Admit while window quota remains; the last request of a window may
  // overdraw by at most one request cost, repaid from the next quota.
  return TokensOf(t) > 0.0;
}

void QwinPolicy::FinishLc(Tenant& /*t*/) {
  // No per-round donation: unspent quota is reclaimed at window close.
}

void QwinPolicy::OnRemoveTenant(Tenant& t) { windows_.erase(t.handle()); }

// --- AdaptiveBePolicy (measured-rate BE inflight cap) ---

namespace {

/** Inflight floor so BE progress never stalls while the rate
 * estimate warms up from zero. */
constexpr int64_t kMinCapBytes = 64 * 1024;

}  // namespace

void AdaptiveBePolicy::BeginRound(sim::TimeNs /*now*/, double dt,
                                  const std::vector<Tenant*>& /*lc*/,
                                  const std::vector<Tenant*>& be) {
  int64_t completed_total = 0;
  int64_t inflight_bytes = 0;
  for (const Tenant* t : be) {
    completed_total += t->completed_bytes;
    inflight_bytes += t->inflight_bytes;
  }
  const int64_t delta = completed_total - last_completed_total_;
  last_completed_total_ = completed_total;
  if (dt > 0.0 && delta >= 0) {
    const double inst = static_cast<double>(delta) / dt;
    rate_ = rate_primed_ ? rate_ + kRateAlpha * (inst - rate_) : inst;
    rate_primed_ = true;
  }
  const double cap = rate_ * sim::ToSeconds(kDrainTarget);
  cap_bytes_ = std::max(kMinCapBytes, static_cast<int64_t>(std::llround(cap)));
  inflight_be_bytes_ = inflight_bytes;
}

bool AdaptiveBePolicy::AdmitBe(const Tenant& t, const PendingIo& io) const {
  if (!TokenBucketPolicy::AdmitBe(t, io)) return false;
  if (io.msg.type == ReqType::kBarrier) return true;
  const int64_t bytes = static_cast<int64_t>(io.msg.sectors) * kSectorBytes;
  return inflight_be_bytes_ + bytes <= cap_bytes_;
}

void AdaptiveBePolicy::OnSubmit(Tenant& t, const PendingIo& io) {
  if (t.IsLatencyCritical() || io.msg.type == ReqType::kBarrier) return;
  inflight_be_bytes_ += static_cast<int64_t>(io.msg.sectors) * kSectorBytes;
}

void AdaptiveBePolicy::OnAddTenant(Tenant& t) {
  // Fold the joining tenant's history into the baseline so the next
  // round's completed-bytes delta reflects only new completions.
  if (!t.IsLatencyCritical()) last_completed_total_ += t.completed_bytes;
}

void AdaptiveBePolicy::OnRemoveTenant(Tenant& t) {
  if (!t.IsLatencyCritical()) last_completed_total_ -= t.completed_bytes;
}

std::unique_ptr<QosPolicy> MakeQosPolicy(const QosPolicyContext& ctx) {
  REFLEX_CHECK(ctx.shared != nullptr);
  REFLEX_CHECK(ctx.config != nullptr);
  REFLEX_CHECK(ctx.counters != nullptr);
  REFLEX_CHECK(ctx.on_neg_limit != nullptr);
  switch (ctx.config->policy) {
    case QosPolicyKind::kQwin:
      return std::make_unique<QwinPolicy>(ctx);
    case QosPolicyKind::kAdaptiveBe:
      return std::make_unique<AdaptiveBePolicy>(ctx);
    case QosPolicyKind::kTokenBucket:
      break;
  }
  return std::make_unique<TokenBucketPolicy>(ctx);
}

}  // namespace reflex::core
