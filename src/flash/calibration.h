#ifndef REFLEX_FLASH_CALIBRATION_H_
#define REFLEX_FLASH_CALIBRATION_H_

#include <cstdint>
#include <vector>

#include "flash/device_profile.h"
#include "sim/time.h"

namespace reflex::sim {
class Simulator;
}

namespace reflex::flash {

class FlashDevice;

/** One point of the measured latency-vs-load curve. */
struct LatencyPoint {
  double token_rate = 0.0;     // weighted tokens/second offered
  double iops = 0.0;           // raw IOPS achieved
  sim::TimeNs read_p95 = 0;    // tail read latency at this load
  sim::TimeNs read_mean = 0;
};

/**
 * Output of device calibration (paper section 3.2.1).
 *
 * Costs are in tokens, where one token is the cost of a 4KB random
 * read under mixed (r < 100%) load. The latency curve is measured in
 * token units, so it is (approximately) workload-independent -- the
 * collapse demonstrated by the paper's Figure 3.
 */
struct CalibrationResult {
  /** C(write, r < 100%): 10 / 20 / 16 for the paper's devices A/B/C. */
  double write_cost = 10.0;

  /** C(read, r = 100%): 0.5 for the paper's device A. */
  double read_cost_readonly = 1.0;

  /** Weighted tokens/second the device sustains at saturation. */
  double token_capacity_per_sec = 0.0;

  /** Measured p95-read-latency vs token-rate curve, ascending rate. */
  std::vector<LatencyPoint> latency_curve;

  /**
   * Largest token rate whose measured p95 read latency stays within
   * `latency_slo` (linear interpolation between measured points).
   * This is the scheduler's token generation rate for the strictest
   * SLO (e.g. 420K tokens/s for 500us on device A).
   */
  double MaxTokenRateForSlo(sim::TimeNs latency_slo) const;

  /** Interpolated p95 read latency at a given token rate. */
  sim::TimeNs LatencyAtTokenRate(double token_rate) const;
};

/**
 * The calibration of device A as the full calibrator recovers it
 * (verified by flash/calibration_test.cc and regenerated live by the
 * fig3_cost_models bench), returned as a constant. Benches, tests and
 * the simtest harness use it to skip the (slow, seed-sensitive)
 * calibration phase while still exercising the real cost model and
 * admission math.
 */
CalibrationResult CannedCalibrationA();

/** Knobs for the calibration run. */
struct CalibrationConfig {
  /** Read ratios used for the mixed-load cost fit. */
  std::vector<double> mixed_read_ratios = {0.50, 0.75, 0.90, 0.95, 0.99};

  /** Request size for calibration I/Os (the token quantum). */
  uint32_t request_bytes = 4096;

  /** Measurement window per sweep point. */
  sim::TimeNs measure_duration = sim::Millis(300);

  /** Warmup discarded before each measurement window. */
  sim::TimeNs warmup_duration = sim::Millis(100);

  /** Load fractions (of measured capacity) for the latency curve. */
  std::vector<double> curve_fractions = {0.1, 0.2, 0.3, 0.4,  0.5,  0.6,
                                         0.7, 0.8, 0.85, 0.9, 0.95, 0.98};

  uint64_t seed = 42;
};

/**
 * Calibrates a device: finds per-ratio saturation throughput with a
 * closed-loop probe, least-squares fits the write cost and read-only
 * discount, then measures the p95-vs-token-rate curve with an
 * open-loop (Poisson) generator. Uses random-LBA writes, which the
 * paper notes conservatively triggers worst-case garbage collection.
 *
 * The calibrator treats the device as a black box: it never reads the
 * DeviceProfile constants it is trying to recover (tests verify the
 * fit recovers them).
 */
CalibrationResult Calibrate(sim::Simulator& sim, FlashDevice& device,
                            const CalibrationConfig& config);

/**
 * Measures saturation IOPS for one workload mix on an idle device
 * (closed-loop at queue depth 512). Exposed separately for tests and
 * for the Figure 1 / Figure 3 benches.
 */
double MeasureSaturationIops(sim::Simulator& sim, FlashDevice& device,
                             double read_ratio, uint32_t request_bytes,
                             const CalibrationConfig& config);

/**
 * Runs one open-loop measurement point: offered `iops` with the given
 * mix and size; returns achieved IOPS and read-latency stats.
 */
LatencyPoint MeasureOpenLoopPoint(sim::Simulator& sim, FlashDevice& device,
                                  double offered_iops, double read_ratio,
                                  uint32_t request_bytes,
                                  const CalibrationConfig& config);

}  // namespace reflex::flash

#endif  // REFLEX_FLASH_CALIBRATION_H_
