// Property tests over Algorithm 1 (parameterized random-traffic
// sweeps): conservation, FIFO order, bounded deficits, pass-through
// completeness.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/cost_model.h"
#include "core/qos_scheduler.h"
#include "core/tenant.h"
#include "sim/random.h"
#include "sim/time.h"

namespace reflex::core {
namespace {

using sim::Micros;

// (num LC tenants, num BE tenants, seed)
using Shape = std::tuple<int, int, uint64_t>;

class SchedulerPropertyTest : public ::testing::TestWithParam<Shape> {
 protected:
  SchedulerPropertyTest()
      : cost_model_(10.0, 0.5), sched_(shared_, cost_model_) {
    shared_.read_ratio.Observe(0, false, 1000.0);  // mixed pricing
  }

  SchedulerShared shared_;
  RequestCostModel cost_model_;
  QosScheduler sched_;
};

TEST_P(SchedulerPropertyTest, InvariantsUnderRandomTraffic) {
  const auto [num_lc, num_be, seed] = GetParam();
  sim::Rng rng(seed, "sched_property");

  std::vector<std::unique_ptr<Tenant>> tenants;
  double total_rate = 0.0;
  for (int i = 0; i < num_lc + num_be; ++i) {
    const bool lc = i < num_lc;
    auto t = std::make_unique<Tenant>(
        i + 1,
        lc ? TenantClass::kLatencyCritical : TenantClass::kBestEffort,
        SloSpec{});
    if (lc) {
      const double rate = 1000.0 + rng.NextDouble() * 200000.0;
      t->set_token_rate(rate);
      total_rate += rate;
    }
    sched_.AddTenant(t.get());
    tenants.push_back(std::move(t));
  }
  // LC tenants reserve their own rates; every BE tenant gets the one
  // shared fair share, as the control plane assigns it.
  shared_.be_token_rate = 1000.0 + rng.NextDouble() * 200000.0;
  total_rate += shared_.be_token_rate * num_be;
  shared_.num_threads = 2;  // keep the bucket across rounds

  // Per-tenant FIFO bookkeeping: cookies must submit in enqueue order.
  std::vector<uint64_t> next_expected(tenants.size(), 0);
  std::vector<uint64_t> next_cookie(tenants.size(), 0);
  int64_t enqueued = 0;
  int64_t submitted = 0;

  auto submit = [&](Tenant& t, PendingIo&& io) {
    const size_t idx = t.handle() - 1;
    EXPECT_EQ(io.msg.cookie, next_expected[idx])
        << "per-tenant FIFO violated for tenant " << t.handle();
    ++next_expected[idx];
    ++submitted;
    // LC balances may go negative but never beyond NEG_LIMIT minus one
    // request's cost; BE balances never go negative at all.
    if (t.IsLatencyCritical()) {
      EXPECT_GT(t.tokens(), -50.0 - 80.0 - 1e-9);
    } else {
      EXPECT_GE(t.tokens(), -1e-9);
    }
  };

  sim::TimeNs now = 0;
  for (int round = 0; round < 400; ++round) {
    // Random arrivals.
    const int arrivals = static_cast<int>(rng.NextBounded(8));
    for (int a = 0; a < arrivals; ++a) {
      const size_t idx = rng.NextBounded(tenants.size());
      PendingIo io;
      io.msg.type =
          rng.NextBernoulli(0.8) ? ReqType::kRead : ReqType::kWrite;
      io.msg.sectors = rng.NextBernoulli(0.9) ? 8 : 64;  // 4KB or 32KB
      io.msg.cookie = next_cookie[idx]++;
      sched_.Enqueue(now, tenants[idx].get(), std::move(io));
      ++enqueued;
    }
    now += static_cast<sim::TimeNs>(rng.NextBounded(100) + 1) * 1000;
    sched_.RunRound(now, submit);
  }

  // Nothing is invented: submissions never exceed enqueues, and the
  // leftovers are still queued.
  EXPECT_LE(submitted, enqueued);
  int64_t still_queued = 0;
  for (auto& t : tenants) {
    still_queued += static_cast<int64_t>(t->queue_depth());
  }
  EXPECT_EQ(submitted + still_queued, enqueued);

  // Token conservation: tokens spent cannot exceed tokens generated
  // (rates x elapsed time) plus the LC burst allowance: down to
  // NEG_LIMIT, overshot by at most one request's cost.
  const double generated =
      total_rate * sim::ToSeconds(now) + (50.0 + 80.0) * num_lc;
  EXPECT_LE(shared_.tokens_spent_total, generated + 1.0);
}

TEST_P(SchedulerPropertyTest, PassThroughModeSubmitsEverything) {
  const auto [num_lc, num_be, seed] = GetParam();
  QosScheduler::Config config;
  config.enforce = false;
  QosScheduler sched(shared_, cost_model_, config);
  sim::Rng rng(seed ^ 0xbeef, "pass_through");

  std::vector<std::unique_ptr<Tenant>> tenants;
  for (int i = 0; i < num_lc + num_be; ++i) {
    auto t = std::make_unique<Tenant>(
        i + 1,
        i < num_lc ? TenantClass::kLatencyCritical
                   : TenantClass::kBestEffort,
        SloSpec{});
    sched.AddTenant(t.get());
    tenants.push_back(std::move(t));
  }
  int64_t enqueued = 0;
  int64_t submitted = 0;
  for (int i = 0; i < 500; ++i) {
    PendingIo io;
    io.msg.type = ReqType::kWrite;  // expensive: irrelevant when off
    io.msg.sectors = 8;
    sched.Enqueue(0, tenants[rng.NextBounded(tenants.size())].get(),
                  std::move(io));
    ++enqueued;
  }
  sched.RunRound(1000, [&](Tenant&, PendingIo&&) { ++submitted; });
  EXPECT_EQ(submitted, enqueued) << "disabled scheduler is pass-through";
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SchedulerPropertyTest,
    ::testing::Values(Shape{1, 0, 1}, Shape{0, 1, 2}, Shape{1, 1, 3},
                      Shape{4, 4, 4}, Shape{16, 16, 5}, Shape{0, 32, 6},
                      Shape{32, 0, 7}, Shape{2, 14, 8}));

}  // namespace
}  // namespace reflex::core
