// Micro-benchmarks (google-benchmark) for the hot paths that bound
// ReFlex's per-request cost: the QoS scheduling round (Algorithm 1),
// the global token bucket, the latency histogram, the event queue and
// the Flash device model. These are real wall-clock measurements of
// this implementation, complementing the simulated-time experiments.

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/cost_model.h"
#include "core/qos_scheduler.h"
#include "core/tenant.h"
#include "core/token_bucket.h"
#include "flash/flash_device.h"
#include "sim/histogram.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace reflex {
namespace {

void BM_QosSchedulerRound(benchmark::State& state) {
  const int num_tenants = static_cast<int>(state.range(0));
  core::SchedulerShared shared;
  shared.read_ratio.Observe(0, false, 1000.0);
  core::RequestCostModel cost_model(10.0, 0.5);
  shared.be_token_rate = 1e6;
  core::QosScheduler sched(shared, cost_model);
  std::vector<std::unique_ptr<core::Tenant>> tenants;
  for (int i = 0; i < num_tenants; ++i) {
    auto t = std::make_unique<core::Tenant>(
        i + 1,
        i % 2 == 0 ? core::TenantClass::kLatencyCritical
                   : core::TenantClass::kBestEffort,
        core::SloSpec{});
    t->set_token_rate(1e6);  // LC reservation; BE tenants share 1e6
    sched.AddTenant(t.get());
    tenants.push_back(std::move(t));
  }
  sim::TimeNs now = 0;
  int64_t submitted = 0;
  auto submit = [&](core::Tenant&, core::PendingIo&&) { ++submitted; };
  core::PendingIo io;
  io.msg.type = core::ReqType::kRead;
  io.msg.sectors = 8;
  int spin = 0;
  for (auto _ : state) {
    // Keep one tenant fed so rounds do some submission work.
    sched.Enqueue(now, tenants[spin % tenants.size()].get(), io);
    spin++;
    now += 1000;
    benchmark::DoNotOptimize(sched.RunRound(now, submit));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["tenants"] = num_tenants;
}
BENCHMARK(BM_QosSchedulerRound)->Arg(1)->Arg(16)->Arg(256)->Arg(2048);

void BM_GlobalTokenBucket(benchmark::State& state) {
  core::GlobalTokenBucket bucket;
  for (auto _ : state) {
    bucket.Donate(2.5);
    benchmark::DoNotOptimize(bucket.TryClaim(1.5));
  }
  state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_GlobalTokenBucket);

void BM_HistogramRecord(benchmark::State& state) {
  sim::Histogram hist;
  sim::Rng rng(1);
  for (auto _ : state) {
    hist.Record(static_cast<int64_t>(rng.NextExponential(100000.0)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  sim::Histogram hist;
  sim::Rng rng(1);
  for (int i = 0; i < 1000000; ++i) {
    hist.Record(static_cast<int64_t>(rng.NextExponential(100000.0)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.Percentile(0.95));
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.ScheduleAt(i, [&counter] { ++counter; });
    }
    state.ResumeTiming();
    sim.Run();
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_EventQueueThroughput);

void BM_FlashDeviceModel(benchmark::State& state) {
  // Cost of simulating one 4KB read through the die model.
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim;
    flash::FlashDevice device(sim, flash::DeviceProfile::DeviceA(), 1);
    flash::QueuePair* qp = device.AllocQueuePair();
    sim::Rng rng(2);
    state.ResumeTiming();
    for (int i = 0; i < 1000; ++i) {
      flash::FlashCommand cmd;
      cmd.op = flash::FlashOp::kRead;
      cmd.lba = rng.NextBounded(1000000) * 8;
      cmd.sectors = 8;
      device.Submit(qp, cmd, nullptr);
    }
    sim.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_FlashDeviceModel);

void BM_RngLognormal(benchmark::State& state) {
  sim::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextLognormal(140000.0, 0.08));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngLognormal);

}  // namespace
}  // namespace reflex

BENCHMARK_MAIN();
