#include "core/qos_scheduler.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/cost_model.h"
#include "core/tenant.h"
#include "sim/time.h"

namespace reflex::core {
namespace {

using sim::Micros;
using sim::Millis;
using sim::TimeNs;

class QosSchedulerTest : public ::testing::Test {
 protected:
  QosSchedulerTest() : cost_model_(10.0, 0.5), sched_(shared_, cost_model_) {
    // Force mixed-load pricing (reads cost 1 token) unless a test
    // wants the read-only discount.
    shared_.read_ratio.Observe(0, /*is_read=*/false, 1000.0);
  }

  PendingIo MakeIo(ReqType type, uint32_t sectors = 8) {
    PendingIo io;
    io.msg.type = type;
    io.msg.sectors = sectors;
    return io;
  }

  void EnqueueN(Tenant* t, int n, ReqType type, TimeNs now = 0) {
    for (int i = 0; i < n; ++i) sched_.Enqueue(now, t, MakeIo(type));
  }

  int Submitted() const { return static_cast<int>(submitted_.size()); }

  QosScheduler::SubmitFn Collect() {
    return [this](Tenant& t, PendingIo&& io) {
      submitted_.emplace_back(t.handle(), io.cost);
    };
  }

  SchedulerShared shared_;
  RequestCostModel cost_model_;
  QosScheduler sched_;
  std::vector<std::pair<uint32_t, double>> submitted_;
};

TEST_F(QosSchedulerTest, EnqueuePricesRequests) {
  Tenant t(1, TenantClass::kLatencyCritical, SloSpec{});
  sched_.AddTenant(&t);
  sched_.Enqueue(0, &t, MakeIo(ReqType::kRead, 8));      // 4KB read
  sched_.Enqueue(0, &t, MakeIo(ReqType::kWrite, 8));     // 4KB write
  sched_.Enqueue(0, &t, MakeIo(ReqType::kRead, 64));     // 32KB read
  EXPECT_DOUBLE_EQ(t.queued_cost(), 1.0 + 10.0 + 8.0);
  EXPECT_EQ(t.queue_depth(), 3u);
}

TEST_F(QosSchedulerTest, ReadOnlyDiscountAppliedWhenDeviceIsReadOnly) {
  SchedulerShared fresh;  // never saw a write: read-only
  QosScheduler sched(fresh, cost_model_);
  Tenant t(1, TenantClass::kLatencyCritical, SloSpec{});
  sched.AddTenant(&t);
  sched.Enqueue(0, &t, MakeIo(ReqType::kRead, 8));
  EXPECT_DOUBLE_EQ(t.queued_cost(), 0.5);
}

TEST_F(QosSchedulerTest, LcBurstsUpToNegLimit) {
  Tenant t(1, TenantClass::kLatencyCritical, SloSpec{});
  t.set_token_rate(1000.0);
  sched_.AddTenant(&t);
  EnqueueN(&t, 100, ReqType::kRead);
  sched_.RunRound(0, Collect());
  // With zero accumulated tokens, the tenant may burst until its
  // balance crosses NEG_LIMIT = -50: exactly 50 one-token reads.
  EXPECT_EQ(Submitted(), 50);
  EXPECT_LE(t.tokens(), -50.0 + 1e-9);
}

TEST_F(QosSchedulerTest, LcRateLimitedAfterBurst) {
  Tenant t(1, TenantClass::kLatencyCritical, SloSpec{});
  t.set_token_rate(100000.0);  // 100K tokens/s
  sched_.AddTenant(&t);
  EnqueueN(&t, 2000, ReqType::kRead);
  sched_.RunRound(0, Collect());
  const int burst = Submitted();
  // 10ms at 100K tokens/s generates 1000 tokens.
  sched_.RunRound(Millis(10), Collect());
  EXPECT_NEAR(Submitted() - burst, 1000, 1);
}

TEST_F(QosSchedulerTest, NegLimitNotifiesControlPlane) {
  Tenant t(1, TenantClass::kLatencyCritical, SloSpec{});
  t.set_token_rate(1.0);
  sched_.AddTenant(&t);
  int notifications = 0;
  sched_.set_neg_limit_callback([&](Tenant&) { ++notifications; });
  // 12KB reads cost 3 tokens, so the burst overshoots NEG_LIMIT
  // (stops at -51) and the next round observes the deficit.
  for (int i = 0; i < 60; ++i) {
    sched_.Enqueue(0, &t, MakeIo(ReqType::kRead, 24));
  }
  sched_.RunRound(0, Collect());
  EXPECT_EQ(notifications, 0) << "not notified before crossing the limit";
  EXPECT_LT(t.tokens(), -50.0);
  sched_.RunRound(Millis(1), Collect());
  EXPECT_EQ(notifications, 1);
  EXPECT_EQ(t.neg_limit_hits, 1);
}

TEST_F(QosSchedulerTest, LcSurplusSpillsToGlobalBucket) {
  Tenant t(1, TenantClass::kLatencyCritical, SloSpec{});
  t.set_token_rate(100000.0);
  sched_.AddTenant(&t);
  // Two participating threads so the end-of-round bucket reset (which
  // fires once every thread completes a round) does not hide the
  // donation from this single scheduler.
  shared_.num_threads = 2;
  // No demand: tokens accumulate. POS_LIMIT is the sum of the last 3
  // grants, so after several idle rounds the surplus must spill (90%).
  sched_.RunRound(0, Collect());
  sched_.RunRound(Millis(10), Collect());   // +1000 tokens
  sched_.RunRound(Millis(20), Collect());   // +1000 tokens
  sched_.RunRound(Millis(30), Collect());   // +1000, > POS_LIMIT? no
  sched_.RunRound(Millis(70), Collect());   // +4000 > 3 rounds' grants
  EXPECT_GT(shared_.global_bucket.Tokens(), 0.0);
  // The tenant keeps only 10% of the excess above POS_LIMIT behavior:
  // in all cases its balance stays bounded near POS_LIMIT.
  EXPECT_LT(t.tokens(), 7000.0);
}

TEST_F(QosSchedulerTest, LcDonatesOnlyExcessAbovePosLimit) {
  // Pins Alg. 1 lines 13-15: the donation is kDonateFraction of the
  // *excess above POS_LIMIT*, not of the whole balance. Donating a
  // fraction of the whole balance would pull the tenant below
  // POS_LIMIT and erode the burst headroom POS_LIMIT protects.
  Tenant t(1, TenantClass::kLatencyCritical, SloSpec{});
  t.set_token_rate(100000.0);
  sched_.AddTenant(&t);
  shared_.num_threads = 2;  // defer the end-of-round bucket reset
  sched_.RunRound(0, Collect());           // gen 0
  sched_.RunRound(Millis(10), Collect());  // gen 1000, tokens 1000
  sched_.RunRound(Millis(20), Collect());  // gen 1000, tokens 2000
  sched_.RunRound(Millis(60), Collect());  // gen 4000, tokens 6000
  // POS_LIMIT = last 3 grants = 1000 + 1000 + 4000 = 6000; tokens are
  // exactly at the limit, so nothing spills yet.
  EXPECT_DOUBLE_EQ(shared_.global_bucket.Tokens(), 0.0);
  EXPECT_NEAR(t.tokens(), 6000.0, 1e-6);
  sched_.RunRound(Millis(70), Collect());  // gen 1000, tokens 7000
  // POS_LIMIT = 1000 + 4000 + 1000 = 6000; excess = 1000. With
  // kDonateFraction = 0.9 the bucket gets 900 and the tenant keeps
  // 6100 -- still >= POS_LIMIT. (The old whole-balance behavior would
  // donate 6300 and strand the tenant at 700, far below POS_LIMIT.)
  EXPECT_NEAR(shared_.global_bucket.Tokens(), 900.0, 1e-6);
  EXPECT_NEAR(t.tokens(), 6100.0, 1e-6);
  EXPECT_GE(t.tokens(), 6000.0);
}

TEST_F(QosSchedulerTest, BeRequiresTokensBeforeSubmitting) {
  Tenant t(2, TenantClass::kBestEffort, SloSpec{});
  shared_.be_token_rate = 1000.0;
  sched_.AddTenant(&t);
  EnqueueN(&t, 10, ReqType::kRead);
  // First round: dt = 0 => no tokens => nothing may submit (BE tenants
  // cannot go negative).
  sched_.RunRound(0, Collect());
  EXPECT_EQ(Submitted(), 0);
  // After 5ms at 1000 tokens/s: 5 tokens => 5 reads.
  sched_.RunRound(Millis(5), Collect());
  EXPECT_EQ(Submitted(), 5);
}

TEST_F(QosSchedulerTest, BeClaimsFromGlobalBucket) {
  Tenant t(2, TenantClass::kBestEffort, SloSpec{});
  shared_.be_token_rate = 0.0;  // no share of its own
  sched_.AddTenant(&t);
  EnqueueN(&t, 10, ReqType::kRead);
  shared_.global_bucket.Donate(6.0);
  sched_.RunRound(0, Collect());
  EXPECT_EQ(Submitted(), 6);
  EXPECT_NEAR(shared_.global_bucket.Tokens(), 0.0, 1e-6);
}

TEST_F(QosSchedulerTest, IdleBeDonatesInsteadOfHoarding) {
  Tenant t(2, TenantClass::kBestEffort, SloSpec{});
  shared_.be_token_rate = 1000.0;
  sched_.AddTenant(&t);
  shared_.num_threads = 2;  // defer the end-of-round bucket reset
  // Tenant has no demand; its generated tokens must flow to the global
  // bucket, not accumulate privately (DRR).
  sched_.RunRound(0, Collect());
  sched_.RunRound(Millis(10), Collect());
  EXPECT_DOUBLE_EQ(t.tokens(), 0.0);
  EXPECT_NEAR(shared_.global_bucket.Tokens(), 10.0, 1e-6);
}

TEST_F(QosSchedulerTest, BeRoundRobinSharesBucketFairly) {
  Tenant a(1, TenantClass::kBestEffort, SloSpec{});
  Tenant b(2, TenantClass::kBestEffort, SloSpec{});
  sched_.AddTenant(&a);
  sched_.AddTenant(&b);
  EnqueueN(&a, 100, ReqType::kRead);
  EnqueueN(&b, 100, ReqType::kRead);
  // Across many rounds, each round donates 1 token to the bucket and
  // rotates the service order; both tenants should get ~half.
  int a_count = 0, b_count = 0;
  for (int round = 1; round <= 100; ++round) {
    shared_.global_bucket.Donate(1.0);
    submitted_.clear();
    sched_.RunRound(round * Micros(10), Collect());
    for (auto& [handle, cost] : submitted_) {
      (handle == 1 ? a_count : b_count) += 1;
    }
  }
  EXPECT_NEAR(a_count, b_count, 2);
  EXPECT_EQ(a_count + b_count, 100);
}

TEST_F(QosSchedulerTest, LcServedBeforeBe) {
  Tenant lc(1, TenantClass::kLatencyCritical, SloSpec{});
  Tenant be(2, TenantClass::kBestEffort, SloSpec{});
  lc.set_token_rate(10000.0);
  shared_.be_token_rate = 10000.0;
  sched_.AddTenant(&lc);
  sched_.AddTenant(&be);
  EnqueueN(&lc, 5, ReqType::kRead);
  EnqueueN(&be, 5, ReqType::kRead);
  sched_.RunRound(0, Collect());
  sched_.RunRound(Millis(1), Collect());
  ASSERT_GE(Submitted(), 6);
  // All LC submissions precede BE submissions within a round.
  EXPECT_EQ(submitted_[0].first, 1u);
}

TEST_F(QosSchedulerTest, GlobalBucketResetAfterAllThreadsScheduled) {
  shared_.num_threads = 2;
  QosScheduler other(shared_, cost_model_);
  shared_.global_bucket.Donate(100.0);
  sched_.RunRound(0, Collect());
  EXPECT_NEAR(shared_.global_bucket.Tokens(), 100.0, 1e-6)
      << "bucket persists until every thread completed a round";
  other.RunRound(0, Collect());
  EXPECT_DOUBLE_EQ(shared_.global_bucket.Tokens(), 0.0)
      << "last thread resets the bucket";
  // The next epoch repeats the pattern.
  shared_.global_bucket.Donate(50.0);
  sched_.RunRound(Millis(1), Collect());
  EXPECT_NEAR(shared_.global_bucket.Tokens(), 50.0, 1e-6);
  other.RunRound(Millis(1), Collect());
  EXPECT_DOUBLE_EQ(shared_.global_bucket.Tokens(), 0.0);
}

TEST(SchedulerSharedStressTest, EpochResetSafeUnderRealThreads) {
  // The epoch-reset protocol (Alg. 1 lines 22-23) is the one piece of
  // scheduler state shared across OS threads in a real deployment:
  // exercise MarkRoundComplete + Donate + the bucket reset with
  // genuine std::threads and check the coordination invariants hold.
  // (Runs under -fsanitize=address,undefined in CI.)
  SchedulerShared shared;
  constexpr int kThreads = 4;
  constexpr int kRounds = 20000;
  shared.num_threads = kThreads;
  RequestCostModel cost_model(10.0, 0.5);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, &cost_model, t] {
      // One scheduler per OS thread, as in the dataplane; no tenants,
      // so rounds only run the shared coordination path.
      QosScheduler sched(shared, cost_model);
      auto noop = [](Tenant&, PendingIo&&) {};
      for (int i = 0; i < kRounds; ++i) {
        if ((i + t) % 4 == 0) shared.global_bucket.Donate(0.25);
        sched.RunRound(i * sim::Micros(10), noop);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every epoch consumed exactly kThreads marks; the epoch counter
  // advanced (threads kept completing full sets) and the in-progress
  // epoch never over-counted.
  EXPECT_GE(shared.reset_epoch.load(), 1u);
  EXPECT_LE(shared.reset_epoch.load(),
            static_cast<uint64_t>(kRounds));
  const int marked = shared.threads_marked.load();
  EXPECT_GE(marked, 0);
  EXPECT_LT(marked, kThreads);
  EXPECT_GE(shared.global_bucket.Tokens(), 0.0);
}

TEST_F(QosSchedulerTest, TokensSpentTracked) {
  Tenant t(1, TenantClass::kLatencyCritical, SloSpec{});
  t.set_token_rate(1000.0);
  sched_.AddTenant(&t);
  EnqueueN(&t, 3, ReqType::kWrite);  // 10 tokens each
  sched_.RunRound(0, Collect());
  EXPECT_NEAR(shared_.tokens_spent_total, 30.0, 1e-9);
  EXPECT_NEAR(t.tokens_spent, 30.0, 1e-9);
  EXPECT_EQ(t.submitted_writes, 3);
}

TEST_F(QosSchedulerTest, RemoveTenantStopsService) {
  Tenant t(1, TenantClass::kBestEffort, SloSpec{});
  shared_.be_token_rate = 1e6;
  sched_.AddTenant(&t);
  EXPECT_EQ(sched_.NumBeTenants(), 1);
  sched_.RemoveTenant(&t);
  EXPECT_EQ(sched_.NumBeTenants(), 0);
  EnqueueN(&t, 5, ReqType::kRead);
  sched_.RunRound(Millis(1), Collect());
  EXPECT_EQ(Submitted(), 0);
}

TEST_F(QosSchedulerTest, BeRotationUnaffectedByRemoval) {
  Tenant a(1, TenantClass::kBestEffort, SloSpec{});
  Tenant b(2, TenantClass::kBestEffort, SloSpec{});
  Tenant c(3, TenantClass::kBestEffort, SloSpec{});
  sched_.AddTenant(&a);
  sched_.AddTenant(&b);
  sched_.AddTenant(&c);
  EnqueueN(&a, 5, ReqType::kRead);
  EnqueueN(&b, 5, ReqType::kRead);
  EnqueueN(&c, 5, ReqType::kRead);

  // One token per round => exactly the tenant at the cursor submits.
  shared_.global_bucket.Donate(1.0);
  sched_.RunRound(Micros(10), Collect());
  ASSERT_EQ(Submitted(), 1);
  EXPECT_EQ(submitted_[0].first, 1u) << "a served first; cursor now at b";

  // Removing the already-served tenant shifts b and c down one slot;
  // the cursor must follow so b is still next in rotation.
  sched_.RemoveTenant(&a);
  submitted_.clear();
  shared_.global_bucket.Donate(1.0);
  sched_.RunRound(Micros(20), Collect());
  ASSERT_EQ(Submitted(), 1);
  EXPECT_EQ(submitted_[0].first, 2u)
      << "removal below the cursor skipped b's turn";
}

TEST_F(QosSchedulerTest, HasPendingDemand) {
  Tenant t(1, TenantClass::kBestEffort, SloSpec{});
  sched_.AddTenant(&t);
  EXPECT_FALSE(sched_.HasPendingDemand());
  EnqueueN(&t, 1, ReqType::kRead);
  EXPECT_TRUE(sched_.HasPendingDemand());
}

// Regression: with enforcement off, SubmitFront used to book spends
// against tenants that never received a grant, driving the balance
// unboundedly negative; RemoveTenant then "retired" that negative
// balance, corrupting the conservation ledger. Pass-through must be
// self-consistent: each submit generates a matching grant, so the
// balance stays at zero and nothing is retired.
TEST_F(QosSchedulerTest, PassThroughLedgerClosesAfterRetire) {
  QosScheduler::Config config;
  config.enforce = false;
  QosScheduler sched(shared_, cost_model_, config);
  Tenant t(1, TenantClass::kLatencyCritical, SloSpec{});
  sched.AddTenant(&t);
  for (int i = 0; i < 20; ++i) {
    sched.Enqueue(0, &t, MakeIo(ReqType::kRead));
    sched.Enqueue(0, &t, MakeIo(ReqType::kWrite));
  }
  sched.RunRound(Micros(10), Collect());
  EXPECT_EQ(Submitted(), 40) << "pass-through submits everything";
  EXPECT_GT(shared_.tokens_spent_total, 0.0);
  EXPECT_DOUBLE_EQ(t.tokens(), 0.0)
      << "each pass-through spend must be matched by a grant";
  EXPECT_DOUBLE_EQ(shared_.tokens_generated_total,
                   shared_.tokens_spent_total);

  sched.RemoveTenant(&t);
  EXPECT_DOUBLE_EQ(shared_.tokens_retired_total, 0.0)
      << "a pass-through tenant retires with a closed balance";
  // Full conservation equation with no active tenants.
  EXPECT_NEAR(shared_.tokens_generated_total,
              shared_.tokens_spent_total + shared_.tokens_discarded_total +
                  shared_.tokens_retired_total +
                  shared_.global_bucket.Tokens(),
              1e-9);
}

}  // namespace
}  // namespace reflex::core
