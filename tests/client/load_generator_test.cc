#include "client/load_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.h"

namespace reflex::client {
namespace {

/**
 * An IoSession that completes every request after a fixed service
 * time, tracks the requests in flight and counts accesses per page.
 * Requests issued while `fail_if(issue_time)` holds fail with
 * kDeviceError.
 */
class FixedServiceSession : public IoSession {
 public:
  FixedServiceSession(sim::Simulator& sim, sim::TimeNs service,
                      uint64_t pages)
      : page_hits(pages, 0), sim_(sim), service_(service) {}

  sim::Future<IoResult> Read(uint64_t lba, uint32_t /*sectors*/,
                             uint8_t* /*data*/, int /*lane*/) override {
    return Submit(lba);
  }
  sim::Future<IoResult> Write(uint64_t lba, uint32_t /*sectors*/,
                              uint8_t* /*data*/, int /*lane*/) override {
    return Submit(lba);
  }

  uint32_t tenant_handle() const override { return 0; }
  int num_lanes() const override { return 2; }
  uint64_t capacity_sectors() const override {
    return page_hits.size() * 8;
  }
  uint32_t sector_bytes() const override { return 512; }
  uint32_t sectors_per_page() const override { return 8; }

  std::function<bool(sim::TimeNs)> fail_if;
  int in_flight = 0;
  int max_in_flight = 0;
  std::vector<int64_t> page_hits;

 private:
  sim::Future<IoResult> Submit(uint64_t lba) {
    ++page_hits.at(lba / 8);
    max_in_flight = std::max(max_in_flight, ++in_flight);
    IoResult result;
    result.issue_time = sim_.Now();
    if (fail_if && fail_if(sim_.Now())) {
      result.status = core::ReqStatus::kDeviceError;
    }
    sim::Promise<IoResult> promise(sim_);
    sim_.ScheduleAfter(service_, [this, promise, result]() mutable {
      --in_flight;
      result.complete_time = sim_.Now();
      promise.Set(result);
    });
    return promise.GetFuture();
  }

  sim::Simulator& sim_;
  sim::TimeNs service_;
};

class LoadGeneratorTest : public ::testing::Test {
 protected:
  /** Runs `gen` over [warm_end, end) until it has drained. */
  void RunLoad(LoadGenerator& gen, sim::TimeNs warm_end, sim::TimeNs end) {
    gen.Run(warm_end, end);
    sim_.Run();
    ASSERT_TRUE(gen.Done().Ready());
  }

  sim::Simulator sim_;
};

TEST_F(LoadGeneratorTest, SemiOpenLoopCapsRequestsInFlight) {
  FixedServiceSession session(sim_, sim::Micros(100), 1000);
  LoadGenSpec spec;
  spec.offered_iops = 50000;  // ~5 in flight uncapped
  spec.queue_depth = 2;
  LoadGenerator gen(sim_, session, spec);
  RunLoad(gen, 0, sim::Millis(20));
  EXPECT_EQ(session.max_in_flight, 2);
  EXPECT_GT(gen.read_latency().Count(), 0);
}

TEST_F(LoadGeneratorTest, OpenLoopIsUncapped) {
  FixedServiceSession session(sim_, sim::Micros(100), 1000);
  LoadGenSpec spec;
  spec.offered_iops = 50000;
  LoadGenerator gen(sim_, session, spec);
  RunLoad(gen, 0, sim::Millis(20));
  EXPECT_GT(session.max_in_flight, 2);
}

TEST_F(LoadGeneratorTest, LatencyIncludesClientQueueWait) {
  // Paced arrivals every 50us into a one-slot pipe that takes 100us per
  // request: the FIFO grows by one request per 100us, and each
  // request's latency is its queue wait plus the service time.
  const sim::TimeNs service = sim::Micros(100);
  FixedServiceSession session(sim_, service, 1000);
  LoadGenSpec spec;
  spec.offered_iops = 20000;
  spec.poisson_arrivals = false;
  spec.queue_depth = 1;
  LoadGenerator gen(sim_, session, spec);
  RunLoad(gen, 0, sim::Millis(10));
  const sim::Histogram& lat = gen.read_latency();
  ASSERT_GT(lat.Count(), 10);
  EXPECT_EQ(session.max_in_flight, 1);
  EXPECT_GE(lat.Min(), service);
  // The last arrival recorded waited behind ~half of the 200 arrivals
  // before it: far more than one service time.
  EXPECT_GT(lat.Max(), 20 * service);
  EXPECT_GT(lat.Mean(), 5.0 * static_cast<double>(service));
}

TEST_F(LoadGeneratorTest, BinsPartitionTheWindowPopulation) {
  FixedServiceSession session(sim_, sim::Micros(80), 1000);
  // Failures inside the window only: [10ms, 12ms) of issue time.
  session.fail_if = [](sim::TimeNs t) {
    return t >= sim::Millis(10) && t < sim::Millis(12);
  };
  LoadGenSpec spec;
  spec.offered_iops = 100000;
  spec.read_fraction = 0.7;
  spec.bin_width = sim::Millis(2);
  LoadGenerator gen(sim_, session, spec);
  RunLoad(gen, sim::Millis(5), sim::Millis(25));

  ASSERT_EQ(gen.bins().size(), 10u);
  int64_t bin_reads = 0;
  int64_t bin_completions = 0;
  int64_t bin_errors = 0;
  for (const LoadGenerator::Bin& bin : gen.bins()) {
    bin_reads += bin.reads.Count();
    bin_completions += bin.completions;
    bin_errors += bin.errors;
  }
  EXPECT_EQ(bin_reads, gen.read_latency().Count());
  EXPECT_EQ(bin_completions,
            gen.read_latency().Count() + gen.write_latency().Count());
  EXPECT_GT(gen.read_errors(), 0);
  EXPECT_GT(gen.write_errors(), 0);
  EXPECT_EQ(bin_errors, gen.read_errors() + gen.write_errors());
  // Errors land in the bins their completions fall in: [10ms, 12.08ms).
  EXPECT_EQ(gen.bins()[2].errors + gen.bins()[3].errors +
                gen.bins()[4].errors,
            bin_errors);
}

TEST_F(LoadGeneratorTest, BinsExcludeRequestsArrivingBeforeWarmup) {
  // Service longer than the warm-up: every completion in the first
  // 500us of the window arrived before it.
  FixedServiceSession session(sim_, sim::Micros(500), 1000);
  LoadGenSpec spec;
  spec.offered_iops = 100000;
  spec.bin_width = sim::Micros(500);
  LoadGenerator gen(sim_, session, spec);
  RunLoad(gen, sim::Millis(1), sim::Millis(3));
  ASSERT_EQ(gen.bins().size(), 4u);
  EXPECT_EQ(gen.bins()[0].completions, 0);
  EXPECT_GT(gen.bins()[1].completions, 0);
  int64_t bin_completions = 0;
  for (const LoadGenerator::Bin& bin : gen.bins()) {
    bin_completions += bin.completions;
  }
  EXPECT_EQ(bin_completions, gen.read_latency().Count());
  EXPECT_GT(gen.ops_in_window(), bin_completions);
}

TEST_F(LoadGeneratorTest, TimeVaryingRateShapesArrivalsPerBin) {
  FixedServiceSession session(sim_, sim::Micros(10), 1000);
  LoadGenSpec spec;
  spec.rate_at = [](sim::TimeNs t) {
    return t < sim::Millis(10) ? 50000.0 : 200000.0;
  };
  spec.bin_width = sim::Millis(5);
  LoadGenerator gen(sim_, session, spec);
  RunLoad(gen, 0, sim::Millis(20));
  ASSERT_EQ(gen.bins().size(), 4u);
  // Expected arrivals per 5ms bin: 250 at 50K IOPS, 1000 at 200K.
  for (int b = 0; b < 4; ++b) {
    const double expected = b < 2 ? 250.0 : 1000.0;
    EXPECT_NEAR(static_cast<double>(gen.bins()[static_cast<size_t>(b)]
                                        .completions),
                expected, 0.2 * expected)
        << "bin " << b;
  }
}

/** Accesses to the most popular page over the mean per page. */
double PeakToMean(const std::vector<int64_t>& hits, int64_t total) {
  const int64_t peak = *std::max_element(hits.begin(), hits.end());
  return static_cast<double>(peak) * static_cast<double>(hits.size()) /
         static_cast<double>(total);
}

TEST_F(LoadGeneratorTest, ZipfThetaSkewsPagePopularity) {
  constexpr int64_t kOps = 20000;
  FixedServiceSession uniform_session(sim_, sim::Micros(10), 1000);
  FixedServiceSession zipf_session(sim_, sim::Micros(10), 1000);
  LoadGenSpec spec;
  spec.queue_depth = 1;
  spec.stop_after_ops = kOps;
  LoadGenerator uniform(sim_, uniform_session, spec);
  spec.zipf_theta = 0.99;
  LoadGenerator zipf(sim_, zipf_session, spec);
  uniform.Run(0, 0);
  zipf.Run(0, 0);
  sim_.Run();
  ASSERT_TRUE(uniform.Done().Ready());
  ASSERT_TRUE(zipf.Done().Ready());

  // Uniform over 1000 pages: 20 expected hits each, so no page comes
  // near 3x the mean. Zipf(0.99): the top rank alone draws ~13%.
  EXPECT_LT(PeakToMean(uniform_session.page_hits, kOps), 3.0);
  EXPECT_GT(PeakToMean(zipf_session.page_hits, kOps), 50.0);
  EXPECT_EQ(std::count(uniform_session.page_hits.begin(),
                       uniform_session.page_hits.end(), 0),
            0);
}

TEST_F(LoadGeneratorTest, ZipfHotSetDependsOnSeed) {
  FixedServiceSession a_session(sim_, sim::Micros(10), 1000);
  FixedServiceSession b_session(sim_, sim::Micros(10), 1000);
  LoadGenSpec spec;
  spec.queue_depth = 1;
  spec.stop_after_ops = 5000;
  spec.zipf_theta = 0.99;
  LoadGenerator a(sim_, a_session, spec);
  spec.seed += 1;
  LoadGenerator b(sim_, b_session, spec);
  a.Run(0, 0);
  b.Run(0, 0);
  sim_.Run();
  auto hottest = [](const std::vector<int64_t>& hits) {
    return std::max_element(hits.begin(), hits.end()) - hits.begin();
  };
  EXPECT_NE(hottest(a_session.page_hits), hottest(b_session.page_hits));
}

}  // namespace
}  // namespace reflex::client
