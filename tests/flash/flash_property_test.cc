// Property tests over the Flash device model (parameterized sweeps).

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "flash/calibration.h"
#include "flash/flash_device.h"
#include "sim/simulator.h"

namespace reflex::flash {
namespace {

using sim::Millis;
using sim::Simulator;

CalibrationConfig QuickConfig() {
  CalibrationConfig cfg;
  cfg.measure_duration = Millis(120);
  cfg.warmup_duration = Millis(40);
  return cfg;
}

// ---------------------------------------------------------------------
// Property: the weighted-token capacity of a device is (approximately)
// workload independent -- the collapse that justifies the paper's
// linear cost model. For every (read ratio, request size), saturation
// IOPS x tokens/IO must land within a band of the device's token
// capacity.
// ---------------------------------------------------------------------

using CollapseParam = std::tuple<double, uint32_t>;  // read ratio, bytes

class TokenCollapseTest : public ::testing::TestWithParam<CollapseParam> {};

TEST_P(TokenCollapseTest, WeightedSaturationIsWorkloadIndependent) {
  const auto [read_ratio, bytes] = GetParam();
  Simulator sim;
  DeviceProfile profile = DeviceProfile::DeviceA();
  FlashDevice device(sim, profile, 7);

  const double k = MeasureSaturationIops(sim, device, read_ratio, bytes,
                                         QuickConfig());
  const double pages = static_cast<double>((bytes + 4095) / 4096);
  const double read_cost = read_ratio >= 1.0 ? 0.5 : 1.0;
  const double tokens_per_io =
      pages * (read_ratio * read_cost + (1.0 - read_ratio) * 10.0);
  const double token_capacity = k * tokens_per_io;

  // Ideal capacity: num_dies / mixed service quantum.
  const double ideal = profile.MixedTokenCapacityPerSec();
  EXPECT_GT(token_capacity, 0.78 * ideal)
      << "ratio=" << read_ratio << " bytes=" << bytes;
  EXPECT_LT(token_capacity, 1.15 * ideal)
      << "ratio=" << read_ratio << " bytes=" << bytes;
}

INSTANTIATE_TEST_SUITE_P(
    MixAndSizeSweep, TokenCollapseTest,
    ::testing::Values(CollapseParam{1.00, 4096}, CollapseParam{1.00, 1024},
                      CollapseParam{1.00, 32768}, CollapseParam{0.99, 4096},
                      CollapseParam{0.95, 4096}, CollapseParam{0.90, 4096},
                      CollapseParam{0.75, 4096}, CollapseParam{0.50, 4096},
                      CollapseParam{0.90, 32768},
                      CollapseParam{0.90, 1024}));

// ---------------------------------------------------------------------
// Property: p95 read latency is (weakly) monotone in offered load for
// any mix.
// ---------------------------------------------------------------------

class LatencyMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(LatencyMonotoneTest, TailRisesWithLoad) {
  const double ratio = GetParam();
  Simulator sim;
  FlashDevice device(sim, DeviceProfile::DeviceA(), 11);
  CalibrationConfig cfg = QuickConfig();
  const double k = MeasureSaturationIops(sim, device, ratio, 4096, cfg);
  sim::TimeNs low =
      MeasureOpenLoopPoint(sim, device, 0.2 * k, ratio, 4096, cfg).read_p95;
  sim::TimeNs mid =
      MeasureOpenLoopPoint(sim, device, 0.6 * k, ratio, 4096, cfg).read_p95;
  sim::TimeNs high =
      MeasureOpenLoopPoint(sim, device, 0.95 * k, ratio, 4096, cfg)
          .read_p95;
  EXPECT_LE(low, mid + Millis(0) + sim::Micros(50));  // tiny noise slack
  EXPECT_LT(mid, high);
  EXPECT_GT(high, 2 * low) << "tail must blow up near saturation";
}

INSTANTIATE_TEST_SUITE_P(RatioSweep, LatencyMonotoneTest,
                         ::testing::Values(1.0, 0.99, 0.9, 0.75, 0.5));

// ---------------------------------------------------------------------
// Property: every device profile's calibration recovers the profile's
// intrinsic write cost and read-only discount.
// ---------------------------------------------------------------------

class DeviceCalibrationTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(DeviceCalibrationTest, FitRecoversProfileConstants) {
  Simulator sim;
  DeviceProfile profile = DeviceProfile::ByName(GetParam());
  FlashDevice device(sim, profile, 13);
  CalibrationConfig cfg = QuickConfig();
  cfg.mixed_read_ratios = {0.5, 0.9, 0.99};
  CalibrationResult r = Calibrate(sim, device, cfg);
  EXPECT_NEAR(r.write_cost, profile.write_cost, profile.write_cost * 0.2);
  const double expected_discount =
      static_cast<double>(profile.read_service_readonly) /
      static_cast<double>(profile.read_service_mixed);
  EXPECT_NEAR(r.read_cost_readonly, expected_discount,
              expected_discount * 0.2);
  // The fitted capacity approximates dies / mixed quantum.
  EXPECT_NEAR(r.token_capacity_per_sec, profile.MixedTokenCapacityPerSec(),
              profile.MixedTokenCapacityPerSec() * 0.15);
}

INSTANTIATE_TEST_SUITE_P(AllDevices, DeviceCalibrationTest,
                         ::testing::Values("A", "B", "C"));

// ---------------------------------------------------------------------
// Property: data written is read back identically for arbitrary
// (offset, length) combinations.
// ---------------------------------------------------------------------

using IoShape = std::tuple<uint64_t, uint32_t>;  // lba, sectors

class DataIntegrityTest : public ::testing::TestWithParam<IoShape> {};

TEST_P(DataIntegrityTest, RoundTrip) {
  const auto [lba, sectors] = GetParam();
  Simulator sim;
  FlashDevice device(sim, DeviceProfile::DeviceA(), 17);
  QueuePair* qp = device.AllocQueuePair();
  std::vector<uint8_t> out(sectors * 512ULL);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>((lba + i) * 131);
  }
  FlashCommand w{FlashOp::kWrite, lba, sectors, out.data(), 0};
  ASSERT_TRUE(device.Submit(qp, w, nullptr));
  sim.Run();
  std::vector<uint8_t> in(out.size(), 0);
  FlashCommand r{FlashOp::kRead, lba, sectors, nullptr, 0, /*pin=*/true};
  ASSERT_TRUE(device.Submit(qp, r, [&in](const FlashCompletion& c) {
    c.pins.CopyTo(in.data());
  }));
  sim.Run();
  EXPECT_EQ(in, out);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DataIntegrityTest,
    ::testing::Values(IoShape{0, 1}, IoShape{7, 3}, IoShape{8, 8},
                      IoShape{13, 16}, IoShape{4096, 64},
                      IoShape{999999, 128}, IoShape{5, 255}));

}  // namespace
}  // namespace reflex::flash
