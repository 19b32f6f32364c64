#include "flash/calibration.h"

#include <algorithm>
#include <cmath>

#include "flash/flash_device.h"
#include "sim/histogram.h"
#include "sim/logging.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace reflex::flash {

namespace {

/** Closed-loop queue depth used to find saturation throughput. */
constexpr int kSaturationQueueDepth = 512;

/** Read ratio at which the latency curve is measured. */
constexpr double kCurveReadRatio = 0.90;

/**
 * Callback-driven workload runner used for calibration probes and the
 * Figure 1 / Figure 3 benches. Issues 4KB-aligned random I/Os with a
 * given read ratio, either closed-loop (fixed queue depth) or
 * open-loop (Poisson arrivals). Read latency and throughput are
 * recorded only inside the measurement window [warm_end, end).
 */
class ProbeRunner {
 public:
  ProbeRunner(sim::Simulator& sim, FlashDevice& device, double read_ratio,
              uint32_t request_bytes, uint64_t seed)
      : sim_(sim),
        device_(device),
        rng_(seed, "calibration_probe"),
        read_ratio_(read_ratio),
        sectors_(std::max<uint32_t>(
            1, request_bytes / device.profile().sector_bytes)) {
    qp_ = device_.AllocQueuePair();
    REFLEX_CHECK(qp_ != nullptr);
    const uint64_t pages = device_.profile().capacity_sectors /
                           device_.profile().SectorsPerPage();
    const uint64_t span_pages =
        (sectors_ + device_.profile().SectorsPerPage() - 1) /
        device_.profile().SectorsPerPage();
    REFLEX_CHECK(pages > span_pages);
    max_page_ = pages - span_pages;
  }

  ~ProbeRunner() { device_.FreeQueuePair(qp_); }

  void RunClosedLoop(int queue_depth, sim::TimeNs warm_end, sim::TimeNs end) {
    warm_end_ = warm_end;
    end_ = end;
    closed_loop_ = true;
    for (int i = 0; i < queue_depth; ++i) IssueOne();
    DrainAll();
  }

  void RunOpenLoop(double offered_iops, sim::TimeNs warm_end,
                   sim::TimeNs end) {
    warm_end_ = warm_end;
    end_ = end;
    closed_loop_ = false;
    REFLEX_CHECK(offered_iops > 0.0);
    mean_interarrival_ = 1e9 / offered_iops;
    ScheduleNextArrival();
    DrainAll();
  }

  double MeasuredIops() const {
    return static_cast<double>(ops_in_window_) /
           sim::ToSeconds(end_ - warm_end_);
  }

  const sim::Histogram& read_latency() const { return read_latency_; }
  int64_t dropped() const { return dropped_; }

 private:
  void ScheduleNextArrival() {
    const auto gap =
        static_cast<sim::TimeNs>(rng_.NextExponential(mean_interarrival_));
    sim_.ScheduleAfter(gap, [this] {
      if (sim_.Now() >= end_) return;
      IssueOne();
      ScheduleNextArrival();
    });
  }

  void IssueOne() {
    FlashCommand cmd;
    const bool is_read = rng_.NextBernoulli(read_ratio_);
    cmd.op = is_read ? FlashOp::kRead : FlashOp::kWrite;
    const uint64_t page = rng_.NextBounded(max_page_ + 1);
    cmd.lba = page * device_.profile().SectorsPerPage();
    cmd.sectors = sectors_;
    ++outstanding_;
    const bool ok =
        device_.Submit(qp_, cmd, [this, is_read](const FlashCompletion& c) {
          OnComplete(c, is_read);
        });
    if (!ok) {
      --outstanding_;
      ++dropped_;
    }
  }

  void OnComplete(const FlashCompletion& c, bool is_read) {
    --outstanding_;
    if (c.complete_time >= warm_end_ && c.complete_time < end_) {
      ++ops_in_window_;
      if (is_read && c.submit_time >= warm_end_) {
        read_latency_.Record(c.Latency());
      }
    }
    if (closed_loop_ && sim_.Now() < end_) IssueOne();
  }

  void DrainAll() {
    while (sim_.Now() < end_ || outstanding_ > 0) {
      sim_.RunUntil(std::max(end_, sim_.Now() + sim::Millis(1)));
      if (sim_.Now() >= end_ && outstanding_ == 0) break;
      if (sim_.PendingEvents() == 0 && outstanding_ > 0) {
        REFLEX_PANIC("calibration probe stalled with %d outstanding I/Os",
                     outstanding_);
      }
    }
  }

  sim::Simulator& sim_;
  FlashDevice& device_;
  sim::Rng rng_;
  double read_ratio_;
  uint32_t sectors_;
  uint64_t max_page_ = 0;
  QueuePair* qp_ = nullptr;

  bool closed_loop_ = true;
  double mean_interarrival_ = 0.0;
  sim::TimeNs warm_end_ = 0;
  sim::TimeNs end_ = 0;
  int outstanding_ = 0;
  int64_t ops_in_window_ = 0;
  int64_t dropped_ = 0;
  sim::Histogram read_latency_;
};

}  // namespace

double CalibrationResult::MaxTokenRateForSlo(sim::TimeNs latency_slo) const {
  REFLEX_CHECK(!latency_curve.empty());
  if (latency_curve.front().read_p95 > latency_slo) {
    // Even the lightest measured load violates the SLO; scale down
    // proportionally as a conservative guess.
    const auto& p = latency_curve.front();
    return p.token_rate * static_cast<double>(latency_slo) /
           static_cast<double>(p.read_p95);
  }
  for (size_t i = 1; i < latency_curve.size(); ++i) {
    const auto& lo = latency_curve[i - 1];
    const auto& hi = latency_curve[i];
    if (hi.read_p95 > latency_slo) {
      const double span = static_cast<double>(hi.read_p95 - lo.read_p95);
      if (span <= 0.0) return lo.token_rate;
      const double f = static_cast<double>(latency_slo - lo.read_p95) / span;
      return lo.token_rate + f * (hi.token_rate - lo.token_rate);
    }
  }
  return latency_curve.back().token_rate;
}

sim::TimeNs CalibrationResult::LatencyAtTokenRate(double token_rate) const {
  REFLEX_CHECK(!latency_curve.empty());
  if (token_rate <= latency_curve.front().token_rate) {
    return latency_curve.front().read_p95;
  }
  for (size_t i = 1; i < latency_curve.size(); ++i) {
    const auto& lo = latency_curve[i - 1];
    const auto& hi = latency_curve[i];
    if (token_rate <= hi.token_rate) {
      const double f =
          (token_rate - lo.token_rate) / (hi.token_rate - lo.token_rate);
      return lo.read_p95 +
             static_cast<sim::TimeNs>(
                 f * static_cast<double>(hi.read_p95 - lo.read_p95));
    }
  }
  return latency_curve.back().read_p95;
}

CalibrationResult CannedCalibrationA() {
  CalibrationResult c;
  c.write_cost = 10.0;
  c.read_cost_readonly = 0.5;
  c.token_capacity_per_sec = 547000.0;
  c.latency_curve = {
      {54696.4, 28945.0, sim::Micros(145), sim::Micros(113)},
      {109392.7, 58120.0, sim::Micros(162), sim::Micros(121)},
      {164089.1, 86995.0, sim::Micros(178), sim::Micros(126)},
      {218785.5, 115525.0, sim::Micros(199), sim::Micros(137)},
      {273481.9, 144005.0, sim::Micros(223), sim::Micros(150)},
      {328178.2, 172470.0, sim::Micros(260), sim::Micros(166)},
      {355526.4, 186700.0, sim::Micros(291), sim::Micros(179)},
      {382874.6, 201237.5, sim::Micros(348), sim::Micros(199)},
      {410222.8, 215507.5, sim::Micros(397), sim::Micros(210)},
      {437571.0, 229790.0, sim::Micros(614), sim::Micros(248)},
      {464919.2, 244222.5, sim::Micros(909), sim::Micros(287)},
      {492267.4, 258982.5, sim::Micros(1622), sim::Micros(404)},
      {508676.3, 267547.5, sim::Micros(2015), sim::Micros(505)},
      {525085.2, 276207.5, sim::Micros(2785), sim::Micros(755)},
      {536024.5, 282335.0, sim::Micros(3113), sim::Micros(924)},
  };
  return c;
}

double MeasureSaturationIops(sim::Simulator& sim, FlashDevice& device,
                             double read_ratio, uint32_t request_bytes,
                             const CalibrationConfig& config) {
  ProbeRunner probe(sim, device, read_ratio, request_bytes,
                    config.seed ^ 0x5a7e);
  const sim::TimeNs start = sim.Now();
  probe.RunClosedLoop(
      kSaturationQueueDepth, start + config.warmup_duration,
      start + config.warmup_duration + config.measure_duration);
  return probe.MeasuredIops();
}

LatencyPoint MeasureOpenLoopPoint(sim::Simulator& sim, FlashDevice& device,
                                  double offered_iops, double read_ratio,
                                  uint32_t request_bytes,
                                  const CalibrationConfig& config) {
  ProbeRunner probe(sim, device, read_ratio, request_bytes,
                    config.seed ^ 0x07e4);
  const sim::TimeNs start = sim.Now();
  probe.RunOpenLoop(offered_iops, start + config.warmup_duration,
                    start + config.warmup_duration + config.measure_duration);
  LatencyPoint point;
  point.iops = probe.MeasuredIops();
  point.read_p95 = probe.read_latency().Percentile(0.95);
  point.read_mean = static_cast<sim::TimeNs>(probe.read_latency().Mean());
  return point;
}

CalibrationResult Calibrate(sim::Simulator& sim, FlashDevice& device,
                            const CalibrationConfig& config) {
  CalibrationResult result;

  // Step 1: saturation throughput per mixed read ratio.
  const std::vector<double>& ratios = config.mixed_read_ratios;
  REFLEX_CHECK(ratios.size() >= 2);
  std::vector<double> saturation_iops;
  saturation_iops.reserve(ratios.size());
  for (double r : ratios) {
    saturation_iops.push_back(
        MeasureSaturationIops(sim, device, r, config.request_bytes, config));
  }

  // Step 2: least-squares fit of (token capacity T, write cost w) from
  //   K_r * r * 1 + K_r * (1 - r) * w = T   for each mixed ratio r.
  double saa = 0, sa = 0, sb = 0, sab = 0;
  const double n = static_cast<double>(ratios.size());
  for (size_t i = 0; i < ratios.size(); ++i) {
    const double a = saturation_iops[i] * (1.0 - ratios[i]);
    const double b = saturation_iops[i] * ratios[i];
    saa += a * a;
    sa += a;
    sb += b;
    sab += a * b;
  }
  const double denom = saa - sa * sa / n;
  REFLEX_CHECK(denom > 0.0);
  result.write_cost = (sa * sb / n - sab) / denom;
  result.token_capacity_per_sec = (sa * result.write_cost + sb) / n;

  // Step 3: read-only saturation gives C(read, r = 100%).
  const double k100 =
      MeasureSaturationIops(sim, device, 1.0, config.request_bytes, config);
  REFLEX_CHECK(k100 > 0.0);
  result.read_cost_readonly = result.token_capacity_per_sec / k100;

  // Step 4: p95-vs-token-rate curve at a 90% read ratio.
  const double r = kCurveReadRatio;
  const double tokens_per_io = r + (1.0 - r) * result.write_cost;
  for (double f : config.curve_fractions) {
    const double token_rate = f * result.token_capacity_per_sec;
    const double offered_iops = token_rate / tokens_per_io;
    LatencyPoint point = MeasureOpenLoopPoint(sim, device, offered_iops, r,
                                              config.request_bytes, config);
    point.token_rate = token_rate;
    result.latency_curve.push_back(point);
  }

  return result;
}

}  // namespace reflex::flash
