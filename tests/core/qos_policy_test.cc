// Unit tests for the pluggable QoS policy framework: kind parsing,
// factory selection, QWin window-quota mechanics and the adaptive
// best-effort inflight cap, plus a token-conservation check that every
// policy must pass (the same ledger the simtest probes verify).

#include "core/qos_policy.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/cost_model.h"
#include "core/qos_scheduler.h"
#include "core/tenant.h"
#include "sim/time.h"

namespace reflex::core {
namespace {

using sim::Micros;
using sim::Millis;
using sim::TimeNs;

class QosPolicyTest : public ::testing::Test {
 protected:
  QosPolicyTest() : cost_model_(10.0, 0.5) {
    // Mixed-load pricing: 4KB reads cost 1 token, 4KB writes cost 10.
    shared_.read_ratio.Observe(0, /*is_read=*/false, 1000.0);
  }

  std::unique_ptr<QosScheduler> NewSched(QosPolicyKind kind) {
    QosScheduler::Config config;
    config.policy = kind;
    return std::make_unique<QosScheduler>(shared_, cost_model_, config);
  }

  PendingIo MakeIo(ReqType type, uint32_t sectors = 8) {
    PendingIo io;
    io.msg.type = type;
    io.msg.sectors = sectors;
    return io;
  }

  void EnqueueN(QosScheduler& sched, Tenant* t, int n, ReqType type,
                TimeNs now = 0, uint32_t sectors = 8) {
    for (int i = 0; i < n; ++i) {
      sched.Enqueue(now, t, MakeIo(type, sectors));
    }
  }

  QosScheduler::SubmitFn Count() {
    return [this](Tenant&, PendingIo&&) { ++submitted_; };
  }

  SchedulerShared shared_;
  RequestCostModel cost_model_;
  int submitted_ = 0;
};

TEST_F(QosPolicyTest, KindNamesRoundTrip) {
  for (QosPolicyKind kind :
       {QosPolicyKind::kTokenBucket, QosPolicyKind::kQwin,
        QosPolicyKind::kAdaptiveBe}) {
    QosPolicyKind parsed;
    ASSERT_TRUE(QosPolicyKindFromName(QosPolicyKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  QosPolicyKind untouched = QosPolicyKind::kQwin;
  EXPECT_FALSE(QosPolicyKindFromName("garbage", &untouched));
  EXPECT_EQ(untouched, QosPolicyKind::kQwin);
}

TEST_F(QosPolicyTest, FactorySelectsConfiguredPolicy) {
  for (QosPolicyKind kind :
       {QosPolicyKind::kTokenBucket, QosPolicyKind::kQwin,
        QosPolicyKind::kAdaptiveBe}) {
    auto sched = NewSched(kind);
    EXPECT_EQ(sched->policy().kind(), kind);
    EXPECT_STREQ(sched->policy().name(), QosPolicyKindName(kind));
  }
}

TEST_F(QosPolicyTest, QwinGrantsBackloggedQuotaCappedAtBurst) {
  auto sched = NewSched(QosPolicyKind::kQwin);
  SloSpec slo;
  slo.latency = Micros(1000);  // window = 0.5 * 1ms = 500us
  Tenant t(1, TenantClass::kLatencyCritical, slo);
  t.set_token_rate(100000.0);  // share = 50 tokens per window
  sched->AddTenant(&t);

  // 200 one-token reads of backlog: the quota is capped at
  // burst_cap * share = 2 * 50 = 100, not backlog + share = 250.
  EnqueueN(*sched, &t, 200, ReqType::kRead);
  sched->RunRound(0, Count());
  EXPECT_EQ(submitted_, 100);
  EXPECT_NEAR(t.tokens(), 0.0, 1e-9);

  // Mid-window rounds grant nothing: the quota is per window.
  sched->RunRound(Micros(100), Count());
  sched->RunRound(Micros(300), Count());
  EXPECT_EQ(submitted_, 100);

  // The next window opens at 500us and re-grants.
  sched->RunRound(Micros(500), Count());
  EXPECT_EQ(submitted_, 200);

  const auto& qwin = static_cast<const QwinPolicy&>(sched->policy());
  EXPECT_EQ(qwin.windows_opened(), 2);
}

TEST_F(QosPolicyTest, QwinDonatesUnspentQuotaAtWindowClose) {
  // Two participating threads so the end-of-round bucket reset does
  // not hide the donation from this single scheduler.
  shared_.num_threads = 2;
  auto sched = NewSched(QosPolicyKind::kQwin);
  SloSpec slo;
  slo.latency = Micros(1000);
  Tenant t(1, TenantClass::kLatencyCritical, slo);
  t.set_token_rate(100000.0);  // share = 50 tokens per window
  sched->AddTenant(&t);

  sched->RunRound(0, Count());  // window 1: quota 50, no demand
  EXPECT_NEAR(t.tokens(), 50.0, 1e-9);
  EXPECT_DOUBLE_EQ(shared_.global_bucket.Tokens(), 0.0);

  sched->RunRound(Micros(500), Count());  // window 2: leftover donated
  EXPECT_NEAR(shared_.global_bucket.Tokens(), 50.0, 1e-9);
  EXPECT_NEAR(shared_.tokens_donated_total, 50.0, 1e-9);
  EXPECT_NEAR(t.tokens(), 50.0, 1e-9);  // fresh window-2 quota
}

TEST_F(QosPolicyTest, QwinOverdrawIsRepaidFromNextQuota) {
  auto sched = NewSched(QosPolicyKind::kQwin);
  SloSpec slo;
  slo.latency = Micros(1000);
  Tenant t(1, TenantClass::kLatencyCritical, slo);
  t.set_token_rate(10000.0);  // share = 5, quota cap = 10
  sched->AddTenant(&t);

  // One 64KB write costs 160 tokens, far above the 10-token quota: it
  // is admitted (tokens > 0) and overdraws the window.
  EnqueueN(*sched, &t, 1, ReqType::kWrite, 0, 128);
  sched->RunRound(0, Count());
  EXPECT_EQ(submitted_, 1);
  EXPECT_NEAR(t.tokens(), -150.0, 1e-9);

  // The debt is repaid from later quotas, never donated away: with no
  // backlog the window grants only the share (5).
  sched->RunRound(Micros(500), Count());
  EXPECT_NEAR(t.tokens(), -145.0, 1e-9);
  EXPECT_DOUBLE_EQ(shared_.tokens_donated_total, 0.0);
}

TEST_F(QosPolicyTest, AdaptiveBeCapsInflightAtMinCapWhileUnprimed) {
  auto sched = NewSched(QosPolicyKind::kAdaptiveBe);
  Tenant t(1, TenantClass::kBestEffort, SloSpec{});
  shared_.be_token_rate = 1e6;
  sched->AddTenant(&t);

  EnqueueN(*sched, &t, 100, ReqType::kRead);
  sched->RunRound(0, Count());  // dt = 0: no tokens yet
  EXPECT_EQ(submitted_, 0);

  // 10ms at 1M tokens/s covers the whole backlog, but the inflight cap
  // starts at the 64KB floor: exactly 16 4KB requests.
  sched->RunRound(Millis(10), Count());
  EXPECT_EQ(submitted_, 16);
  const auto& adaptive =
      static_cast<const AdaptiveBePolicy&>(sched->policy());
  EXPECT_EQ(adaptive.cap_bytes(), 64 * 1024);

  // While those bytes sit at the device, nothing more is admitted.
  t.inflight_bytes = 16 * 4096;
  sched->RunRound(Millis(20), Count());
  EXPECT_EQ(submitted_, 16);
}

TEST_F(QosPolicyTest, AdaptiveBeRaisesCapWithMeasuredServiceRate) {
  QosScheduler::Config config;
  config.policy = QosPolicyKind::kAdaptiveBe;
  auto sched =
      std::make_unique<QosScheduler>(shared_, cost_model_, config);
  Tenant t(1, TenantClass::kBestEffort, SloSpec{});
  shared_.be_token_rate = 1e6;
  sched->AddTenant(&t);

  EnqueueN(*sched, &t, 100, ReqType::kRead);
  sched->RunRound(0, Count());
  sched->RunRound(Millis(10), Count());  // 16 admitted at the floor cap
  ASSERT_EQ(submitted_, 16);

  // The device drains everything and reports 10MB completed: the
  // measured rate is 10MB / 10ms = 1GB/s, EWMA'd into the estimate,
  // and the cap becomes rate * drain_target.
  t.inflight_bytes = 0;
  t.completed_bytes = 10 * 1000 * 1000;
  sched->RunRound(Millis(20), Count());

  const auto& adaptive =
      static_cast<const AdaptiveBePolicy&>(sched->policy());
  const double expected_rate = AdaptiveBePolicy::kRateAlpha * 1e9;
  EXPECT_NEAR(adaptive.service_rate_bytes_per_sec(), expected_rate,
              expected_rate * 1e-9);
  const int64_t expected_cap = std::llround(
      expected_rate * sim::ToSeconds(AdaptiveBePolicy::kDrainTarget));
  EXPECT_EQ(adaptive.cap_bytes(), expected_cap);

  // The wider cap admits more of the backlog in the same round.
  const int fit = static_cast<int>(expected_cap / 4096);
  EXPECT_EQ(submitted_, 16 + fit);
}

TEST_F(QosPolicyTest, ConservationLedgerClosesUnderEveryPolicy) {
  for (QosPolicyKind kind :
       {QosPolicyKind::kTokenBucket, QosPolicyKind::kQwin,
        QosPolicyKind::kAdaptiveBe}) {
    SCOPED_TRACE(QosPolicyKindName(kind));
    SchedulerShared shared;
    shared.read_ratio.Observe(0, /*is_read=*/false, 1000.0);
    QosScheduler::Config config;
    config.policy = kind;
    QosScheduler sched(shared, cost_model_, config);

    SloSpec slo;
    slo.latency = Micros(1000);
    Tenant lc(1, TenantClass::kLatencyCritical, slo);
    lc.set_token_rate(50000.0);
    Tenant be(2, TenantClass::kBestEffort, SloSpec{});
    shared.be_token_rate = 20000.0;
    sched.AddTenant(&lc);
    sched.AddTenant(&be);

    auto sink = [](Tenant&, PendingIo&&) {};
    for (int round = 0; round < 10; ++round) {
      const TimeNs now = Millis(round);
      for (int i = 0; i < 5; ++i) {
        sched.Enqueue(now, &lc,
                      MakeIo(i % 4 == 0 ? ReqType::kWrite : ReqType::kRead));
        sched.Enqueue(now, &be,
                      MakeIo(i % 2 == 0 ? ReqType::kRead : ReqType::kWrite));
      }
      sched.RunRound(now, sink);
    }
    sched.RemoveTenant(&lc);
    sched.RemoveTenant(&be);

    // All balances retired: generated must equal the sinks exactly
    // (modulo double summation noise). num_threads == 1, so every
    // round's bucket residue was discarded by the epoch reset.
    const double accounted =
        shared.tokens_spent_total + shared.tokens_discarded_total +
        shared.tokens_retired_total + shared.global_bucket.Tokens();
    EXPECT_NEAR(shared.tokens_generated_total, accounted,
                1.0 + 1e-9 * std::abs(shared.tokens_generated_total));
    // Bucket flow: donations fully account for claims + discards +
    // residue.
    EXPECT_NEAR(shared.tokens_donated_total,
                shared.tokens_claimed_total +
                    shared.tokens_discarded_total +
                    shared.global_bucket.Tokens(),
                1.0 + 1e-9 * std::abs(shared.tokens_donated_total));
  }
}

}  // namespace
}  // namespace reflex::core
