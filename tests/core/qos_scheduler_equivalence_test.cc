// Equivalence of QosScheduler with the scheduler it replaced: a round
// that visited every registered tenant. The new round visits only LC
// tenants and backlogged BE tenants and credits each run of idle BE
// tenants in one step. The reference below is that visit-everything
// round (under TokenBucketPolicy, i.e. Algorithm 1) kept verbatim, with
// tenant state in a local struct because Tenant's scheduler state is
// private. Both are driven with the same random traffic and must agree
// after every round on the submit sequence, the global bucket's
// micro-tokens and every tenant balance, exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/qos_scheduler.h"
#include "core/tenant.h"
#include "sim/random.h"
#include "sim/time.h"

namespace reflex::core {
namespace {

// --- Reference: the visit-every-tenant scheduler ---

struct RefTenant {
  uint32_t handle = 0;
  bool lc = false;
  double rate = 0.0;  // LC reservation; BE tenants use RefScheduler::be_rate
  double tokens = 0.0;
  std::deque<PendingIo> queue;
  double queued_cost = 0.0;
  double grant_history[3] = {0.0, 0.0, 0.0};
  int grant_cursor = 0;
  int64_t inflight = 0;
};

class RefScheduler {
 public:
  using SubmitFn = std::function<void(RefTenant&, PendingIo&&)>;

  RefScheduler(SchedulerShared& shared, const RequestCostModel& cost_model,
               QosConfig config)
      : shared_(shared), cost_model_(cost_model), config_(config) {}

  double be_rate = 0.0;

  void AddTenant(RefTenant* t) {
    (t->lc ? lc_tenants_ : be_tenants_).push_back(t);
  }

  void RemoveTenant(RefTenant* t) {
    shared_.tokens_retired_total += t->tokens;
    t->tokens = 0.0;
    auto lc = std::find(lc_tenants_.begin(), lc_tenants_.end(), t);
    if (lc != lc_tenants_.end()) {
      lc_tenants_.erase(lc);
      return;
    }
    auto it = std::find(be_tenants_.begin(), be_tenants_.end(), t);
    ASSERT_NE(it, be_tenants_.end());
    const size_t idx = static_cast<size_t>(it - be_tenants_.begin());
    be_tenants_.erase(it);
    if (idx < be_cursor_) --be_cursor_;
    if (be_cursor_ >= be_tenants_.size()) be_cursor_ = 0;
  }

  void Enqueue(sim::TimeNs now, RefTenant* t, PendingIo io) {
    if (io.msg.type == ReqType::kBarrier) {
      io.cost = 0.0;
    } else {
      const bool is_read = io.msg.type == ReqType::kRead;
      io.cost = cost_model_.TokensFor(
          is_read ? flash::FlashOp::kRead : flash::FlashOp::kWrite,
          io.msg.sectors * kSectorBytes, shared_.read_ratio.IsReadOnly(now));
    }
    io.enqueue_time = now;
    t->queue.push_back(std::move(io));
    t->queued_cost += t->queue.back().cost;
  }

  int RunRound(sim::TimeNs now, const SubmitFn& submit) {
    if (!has_run_) {
      prev_round_time_ = now;
      has_run_ = true;
    }
    const double dt = sim::ToSeconds(now - prev_round_time_);
    prev_round_time_ = now;
    int submitted = 0;
    if (!config_.enforce) {
      for (RefTenant* t : lc_tenants_) {
        while (!t->queue.empty() && !Blocked(*t)) {
          SubmitFront(now, *t, submit);
          ++submitted;
        }
      }
      for (RefTenant* t : be_tenants_) {
        while (!t->queue.empty() && !Blocked(*t)) {
          SubmitFront(now, *t, submit);
          ++submitted;
        }
      }
      MarkRoundComplete();
      return submitted;
    }
    for (RefTenant* tp : lc_tenants_) {
      RefTenant& t = *tp;
      // AccrueLc
      const double gen = t.rate * dt;
      t.tokens += gen;
      shared_.tokens_generated_total += gen;
      t.grant_history[t.grant_cursor] = gen;
      t.grant_cursor = (t.grant_cursor + 1) % 3;
      while (!t.queue.empty() && t.tokens > config_.neg_limit &&
             !Blocked(t)) {
        SubmitFront(now, t, submit);
        ++submitted;
      }
      // FinishLc
      const double pos_limit =
          t.grant_history[0] + t.grant_history[1] + t.grant_history[2];
      if (t.tokens > pos_limit) {
        const double spill =
            (t.tokens - pos_limit) * TokenBucketPolicy::kDonateFraction;
        shared_.global_bucket.Donate(spill);
        t.tokens -= spill;
        shared_.tokens_donated_total += spill;
      }
    }
    const size_t n = be_tenants_.size();
    for (size_t k = 0; k < n; ++k) {
      RefTenant& t = *be_tenants_[(be_cursor_ + k) % n];
      // AccrueBe
      const double gen = be_rate * dt;
      t.tokens += gen;
      shared_.tokens_generated_total += gen;
      const double deficit = t.queued_cost - t.tokens;
      if (deficit > 0.0) {
        const double claimed = shared_.global_bucket.TryClaim(deficit);
        t.tokens += claimed;
        shared_.tokens_claimed_total += claimed;
      }
      while (!t.queue.empty() && t.tokens >= t.queue.front().cost &&
             !Blocked(t)) {
        SubmitFront(now, t, submit);
        ++submitted;
      }
      // FinishBe
      if (t.tokens > 0.0 && t.queue.empty()) {
        shared_.global_bucket.Donate(t.tokens);
        shared_.tokens_donated_total += t.tokens;
        t.tokens = 0.0;
      }
    }
    if (n > 0) be_cursor_ = (be_cursor_ + 1) % n;
    MarkRoundComplete();
    return submitted;
  }

 private:
  static bool Blocked(const RefTenant& t) {
    return t.queue.front().msg.type == ReqType::kBarrier && t.inflight > 0;
  }

  void SubmitFront(sim::TimeNs now, RefTenant& t, const SubmitFn& submit) {
    PendingIo io = std::move(t.queue.front());
    t.queue.pop_front();
    t.queued_cost -= io.cost;
    if (t.queued_cost < 0.0) t.queued_cost = 0.0;
    if (!config_.enforce) {
      t.tokens += io.cost;
      shared_.tokens_generated_total += io.cost;
    }
    t.tokens -= io.cost;
    shared_.tokens_spent_total += io.cost;
    if (io.msg.type != ReqType::kBarrier) {
      shared_.read_ratio.Observe(now, io.msg.type == ReqType::kRead);
    }
    submit(t, std::move(io));
  }

  void MarkRoundComplete() {
    const uint64_t epoch = shared_.reset_epoch.load();
    if (local_epoch_ != epoch) {
      local_epoch_ = epoch;
      marked_this_epoch_ = false;
    }
    if (marked_this_epoch_) return;
    marked_this_epoch_ = true;
    if (shared_.threads_marked.fetch_add(1) + 1 >= shared_.num_threads) {
      shared_.tokens_discarded_total += shared_.global_bucket.Reset();
      shared_.threads_marked.store(0);
      shared_.reset_epoch.fetch_add(1);
    }
  }

  SchedulerShared& shared_;
  const RequestCostModel& cost_model_;
  QosConfig config_;
  std::vector<RefTenant*> lc_tenants_;
  std::vector<RefTenant*> be_tenants_;
  size_t be_cursor_ = 0;
  sim::TimeNs prev_round_time_ = 0;
  bool has_run_ = false;
  uint64_t local_epoch_ = 0;
  bool marked_this_epoch_ = false;
};

// --- Driver ---

// (num LC tenants, num BE tenants, rounds, seed, enforce)
using Shape = std::tuple<int, int, int, uint64_t, bool>;

class QosSchedulerEquivalenceTest : public ::testing::TestWithParam<Shape> {
 protected:
  QosSchedulerEquivalenceTest() : cost_model_(10.0, 0.5) {}

  RequestCostModel cost_model_;
};

TEST_P(QosSchedulerEquivalenceTest, MatchesVisitEveryTenantRound) {
  const auto [num_lc, num_be, rounds, seed, enforce] = GetParam();
  sim::Rng rng(seed, "sched_equivalence");
  QosConfig config;
  config.enforce = enforce;

  // Two worlds with their own shared state. Each has a second, empty
  // scheduler standing in for another dataplane thread, so the global
  // bucket survives rounds until that thread also completes one.
  SchedulerShared shared;
  SchedulerShared ref_shared;
  shared.num_threads = ref_shared.num_threads = 2;
  QosScheduler sched(shared, cost_model_, config);
  QosScheduler other(shared, cost_model_, config);
  RefScheduler ref(ref_shared, cost_model_, config);
  RefScheduler ref_other(ref_shared, cost_model_, config);

  const int num_tenants = num_lc + num_be;
  std::vector<std::unique_ptr<Tenant>> tenants;
  std::vector<std::unique_ptr<RefTenant>> ref_tenants;
  std::vector<bool> bound(static_cast<size_t>(num_tenants), true);
  std::vector<uint64_t> next_cookie(static_cast<size_t>(num_tenants), 0);
  auto set_be_rate = [&](double rate) {
    shared.be_token_rate = rate;
    ref.be_rate = rate;
  };
  set_be_rate(200.0 + rng.NextDouble() * 2000.0);
  for (int i = 0; i < num_tenants; ++i) {
    const bool lc = i < num_lc;
    const auto handle = static_cast<uint32_t>(i + 1);
    tenants.push_back(std::make_unique<Tenant>(
        handle, lc ? TenantClass::kLatencyCritical : TenantClass::kBestEffort,
        SloSpec{}));
    auto ref_tenant = std::make_unique<RefTenant>();
    ref_tenant->handle = handle;
    ref_tenant->lc = lc;
    if (lc) {
      const double rate = 20000.0 + rng.NextDouble() * 100000.0;
      tenants.back()->set_token_rate(rate);
      ref_tenant->rate = rate;
    }
    sched.AddTenant(tenants.back().get());
    ref.AddTenant(ref_tenant.get());
    ref_tenants.push_back(std::move(ref_tenant));
  }

  // Most traffic goes to a few hot tenants, so most BE tenants are idle
  // in most rounds, as at scale.
  const int hot = std::min(num_tenants, num_lc + 3);
  auto pick_tenant = [&] {
    return static_cast<size_t>(
        rng.NextBernoulli(0.8)
            ? rng.NextBounded(static_cast<uint64_t>(hot))
            : rng.NextBounded(static_cast<uint64_t>(num_tenants)));
  };

  std::vector<std::pair<uint32_t, uint64_t>> got;
  std::vector<std::pair<uint32_t, uint64_t>> want;
  auto submit = [&got](Tenant& t, PendingIo&& io) {
    if (io.msg.type != ReqType::kBarrier) ++t.inflight;
    got.emplace_back(t.handle(), io.msg.cookie);
  };
  auto ref_submit = [&want](RefTenant& t, PendingIo&& io) {
    if (io.msg.type != ReqType::kBarrier) ++t.inflight;
    want.emplace_back(t.handle, io.msg.cookie);
  };

  sim::TimeNs now = 0;
  int64_t total_submitted = 0;
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const int arrivals = static_cast<int>(rng.NextBounded(6));
    for (int a = 0; a < arrivals; ++a) {
      const size_t idx = pick_tenant();
      PendingIo io;
      const double kind = rng.NextDouble();
      io.msg.type = kind < 0.05   ? ReqType::kBarrier
                    : kind < 0.75 ? ReqType::kRead
                                  : ReqType::kWrite;
      io.msg.sectors = rng.NextBernoulli(0.9) ? 8 : 64;
      io.msg.cookie = next_cookie[idx]++;
      ref.Enqueue(now, ref_tenants[idx].get(), io);
      sched.Enqueue(now, tenants[idx].get(), std::move(io));
    }

    // Device completions release barriers.
    for (size_t i = 0; i < tenants.size(); ++i) {
      if (tenants[i]->inflight == 0 || !rng.NextBernoulli(0.5)) continue;
      --tenants[i]->inflight;
      --ref_tenants[i]->inflight;
    }

    // Churn: unbind a tenant (often with requests still queued, which
    // leave with it) or rebind one; occasionally re-divide the BE share.
    if (rng.NextBernoulli(0.02)) {
      const size_t idx = rng.NextBounded(tenants.size());
      if (bound[idx]) {
        sched.RemoveTenant(tenants[idx].get());
        ref.RemoveTenant(ref_tenants[idx].get());
      } else {
        sched.AddTenant(tenants[idx].get());
        ref.AddTenant(ref_tenants[idx].get());
      }
      bound[idx] = !bound[idx];
    }
    if (rng.NextBernoulli(0.01)) set_be_rate(rng.NextDouble() * 3000.0);

    // Rounds may repeat a timestamp (dt == 0).
    now += static_cast<sim::TimeNs>(rng.NextBounded(40)) * 1000;
    got.clear();
    want.clear();
    const int n = sched.RunRound(now, submit);
    const int ref_n = ref.RunRound(now, ref_submit);
    if (rng.NextBernoulli(0.3)) {
      other.RunRound(now, submit);
      ref_other.RunRound(now, ref_submit);
    }
    total_submitted += n;

    ASSERT_EQ(n, ref_n);
    ASSERT_EQ(got, want) << "submit sequence diverged";
    ASSERT_EQ(shared.global_bucket.Tokens(), ref_shared.global_bucket.Tokens())
        << "global bucket micro-tokens diverged";
    int64_t queued = 0;
    for (size_t i = 0; i < tenants.size(); ++i) {
      ASSERT_EQ(tenants[i]->tokens(), ref_tenants[i]->tokens)
          << "balance of tenant " << i + 1;
      ASSERT_EQ(tenants[i]->queue_depth(), ref_tenants[i]->queue.size());
      if (bound[i]) {
        queued += static_cast<int64_t>(ref_tenants[i]->queue.size());
      }
    }
    ASSERT_EQ(sched.QueuedRequests(), queued);
    ASSERT_EQ(sched.HasPendingDemand(), queued > 0);
  }
  EXPECT_GT(total_submitted, 0);

  // Spends, claims and resets follow the identical sequence; generated
  // and donated totals add each idle run as one product, so they may
  // differ in the last bits.
  EXPECT_EQ(shared.tokens_spent_total, ref_shared.tokens_spent_total);
  EXPECT_EQ(shared.tokens_claimed_total, ref_shared.tokens_claimed_total);
  EXPECT_EQ(shared.tokens_discarded_total, ref_shared.tokens_discarded_total);
  EXPECT_EQ(shared.tokens_retired_total, ref_shared.tokens_retired_total);
  const auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
  };
  EXPECT_TRUE(near(shared.tokens_generated_total,
                   ref_shared.tokens_generated_total));
  EXPECT_TRUE(
      near(shared.tokens_donated_total, ref_shared.tokens_donated_total));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, QosSchedulerEquivalenceTest,
    ::testing::Values(
        Shape{2, 1, 3000, 1, true},       // single BE tenant
        Shape{1, 7, 3000, 2, true},       // cursor wraps hundreds of times
        Shape{0, 64, 2000, 3, true},      // exactly one bitmap word
        Shape{3, 65, 2000, 4, true},      // word boundary
        Shape{2, 300, 1500, 5, true},     // churn across many slots
        Shape{2, 2000, 2100, 6, true},    // full cursor wrap at scale
        Shape{2, 200, 800, 7, false}));   // pass-through

}  // namespace
}  // namespace reflex::core
