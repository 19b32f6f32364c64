#ifndef REFLEX_BENCH_COMMON_H_
#define REFLEX_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/io_session.h"
#include "core/reflex_server.h"
#include "flash/calibration.h"
#include "flash/flash_device.h"
#include "net/network.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/histogram.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace reflex::bench {

/** Prints the standard bench banner with the experiment mapping. */
inline void Banner(const char* experiment, const char* paper_summary) {
  std::printf("==============================================================\n");
  std::printf("ReFlex reproduction: %s\n", experiment);
  std::printf("Paper reference: %s\n", paper_summary);
  std::printf("==============================================================\n");
}

/**
 * The calibration used by all server benches: the synthetic fit for
 * device A. Identical to what flash::Calibrate recovers (verified by
 * flash/calibration_test.cc and regenerated live by fig3_cost_models)
 * but instant, keeping every bench's runtime in the measurement
 * itself.
 */
inline flash::CalibrationResult CalibrationA() {
  flash::CalibrationResult c;
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

/** A complete ReFlex deployment for benches. */
struct BenchWorld {
  explicit BenchWorld(core::ServerOptions options = core::ServerOptions(),
                      int num_client_machines = 4, uint64_t seed = 42)
      : net(sim), device(sim, flash::DeviceProfile::DeviceA(), seed) {
    server_machine = net.AddMachine("reflex-server");
    for (int i = 0; i < num_client_machines; ++i) {
      client_machines.push_back(
          net.AddMachine("client-" + std::to_string(i)));
    }
    server = std::make_unique<core::ReflexServer>(
        sim, net, server_machine, device, CalibrationA(), options);
  }

  /** Steps the simulator until the future resolves. */
  template <typename T>
  T Await(sim::Future<T> future, sim::TimeNs deadline = sim::Seconds(600)) {
    while (!future.Ready() && sim.Now() < deadline) {
      sim.RunUntil(sim.Now() + sim::Millis(1));
    }
    if (!future.Ready()) {
      std::fprintf(stderr, "bench deadline exceeded\n");
      std::abort();
    }
    return future.Get();
  }

  void RunFor(sim::TimeNs duration) { sim.RunUntil(sim.Now() + duration); }

  sim::Simulator sim;
  net::Network net;
  flash::FlashDevice device;
  net::Machine* server_machine = nullptr;
  std::vector<net::Machine*> client_machines;
  std::unique_ptr<core::ReflexServer> server;
};

/**
 * Dumps a server's latency-breakdown table in machine-readable form:
 * grep-able CSV rows on stdout, and -- when REFLEX_OBS_DIR is set --
 * a <dir>/<experiment>_<label>.json file with the same table plus the
 * full metrics-registry snapshot.
 */
inline void DumpBreakdown(core::ReflexServer& server,
                          const obs::BreakdownTable& table,
                          const std::string& experiment,
                          const std::string& label) {
  std::printf("%s",
              obs::BreakdownToCsv(table, experiment, label).c_str());
  if (const char* dir = std::getenv("REFLEX_OBS_DIR")) {
    std::string doc = obs::BreakdownToJson(table, experiment, label);
    // Merge breakdown + registry into one document.
    doc.pop_back();  // trailing '}'
    doc += ",\"registry\":";
    doc += obs::RegistryToJson(server.SnapshotMetrics());
    doc += "}";
    obs::WriteFile(std::string(dir) + "/" + experiment + "_" + label +
                       ".json",
                   doc);
  }
}

/** Convenience overload over the collector's current table. */
inline void DumpBreakdown(core::ReflexServer& server,
                          const std::string& experiment,
                          const std::string& label) {
  DumpBreakdown(server, server.tracer().Table(), experiment, label);
}

/**
 * Reconciliation check for the breakdown table: the per-stage interval
 * means must sum to the end-to-end mean (they telescope per span, so
 * any gap indicates a missed stage). Prints and returns the relative
 * error against `e2e_mean_us` (an independently measured end-to-end
 * mean; pass table.total_mean_us to check only internal consistency).
 */
inline double CheckBreakdownReconciles(const obs::BreakdownTable& table,
                                       double e2e_mean_us,
                                       const char* what) {
  const double err =
      e2e_mean_us > 0.0
          ? std::abs(table.stage_sum_us - e2e_mean_us) / e2e_mean_us
          : 0.0;
  std::printf(
      "reconcile,%s: stage_sum=%.3f us vs e2e_mean=%.3f us "
      "(%.3f%% error, %lld spans)\n",
      what, table.stage_sum_us, e2e_mean_us, err * 100.0,
      static_cast<long long>(table.spans));
  return err;
}

/**
 * QD-1 latency probe over any IoSession: issues `samples` random 4KB
 * I/Os one at a time and returns the latency histogram (the
 * methodology of the paper's Table 2 and of mutilate's latency agent).
 */
inline sim::Histogram ProbeLatency(BenchWorld& world,
                                   client::IoSession& session, bool is_read,
                                   int samples, uint64_t seed = 7) {
  sim::Histogram hist;
  sim::Rng rng(seed, "bench_probe");
  for (int i = 0; i < samples; ++i) {
    const uint64_t lba = rng.NextBounded(4000000) * 8;
    auto f = is_read ? session.Read(lba, 8) : session.Write(lba, 8);
    hist.Record(world.Await(std::move(f)).Latency());
  }
  return hist;
}

/** One measured point of a latency-throughput curve. */
struct LoadPoint {
  double offered_iops = 0.0;
  double achieved_iops = 0.0;
  sim::TimeNs read_p95 = 0;
  sim::TimeNs read_mean = 0;
};

namespace internal {

/** Open-loop Poisson generator over a set of IoSessions. */
class OpenLoopDriver {
 public:
  OpenLoopDriver(sim::Simulator& sim, std::vector<client::IoSession*> sessions,
                 double offered_iops, double read_fraction,
                 uint32_t sectors, uint64_t seed)
      : sim_(sim),
        sessions_(std::move(sessions)),
        read_fraction_(read_fraction),
        sectors_(sectors),
        rng_(seed, "open_loop_driver"),
        mean_gap_(1e9 / offered_iops) {}

  LoadPoint Measure(sim::TimeNs warmup, sim::TimeNs duration) {
    warm_end_ = sim_.Now() + warmup;
    end_ = warm_end_ + duration;
    ScheduleNext();
    while ((sim_.Now() < end_ || outstanding_ > 0) &&
           sim_.Now() < end_ + sim::Seconds(5)) {
      sim_.RunUntil(sim_.Now() + sim::Millis(1));
    }
    LoadPoint point;
    point.offered_iops = 1e9 / mean_gap_;
    point.achieved_iops =
        static_cast<double>(ops_in_window_) / sim::ToSeconds(end_ - warm_end_);
    point.read_p95 = hist_.Percentile(0.95);
    point.read_mean = static_cast<sim::TimeNs>(hist_.Mean());
    return point;
  }

 private:
  void ScheduleNext() {
    const auto gap = static_cast<sim::TimeNs>(
        rng_.NextExponential(mean_gap_));
    sim_.ScheduleAfter(gap, [this] {
      if (sim_.Now() >= end_) return;
      ++outstanding_;
      IssueOne(sessions_[next_session_]);
      next_session_ = (next_session_ + 1) % sessions_.size();
      ScheduleNext();
    });
  }

  sim::Task IssueOne(client::IoSession* session) {
    const bool is_read = rng_.NextBernoulli(read_fraction_);
    const uint64_t lba = rng_.NextBounded(4000000) * 8;
    client::IoResult r;
    if (is_read) {
      r = co_await session->Read(lba, sectors_);
    } else {
      r = co_await session->Write(lba, sectors_);
    }
    --outstanding_;
    if (r.ok() && r.complete_time >= warm_end_ && r.complete_time < end_) {
      ++ops_in_window_;
      if (is_read && r.issue_time >= warm_end_) hist_.Record(r.Latency());
    }
  }

  sim::Simulator& sim_;
  std::vector<client::IoSession*> sessions_;
  double read_fraction_;
  uint32_t sectors_;
  sim::Rng rng_;
  double mean_gap_;
  sim::TimeNs warm_end_ = 0;
  sim::TimeNs end_ = 0;
  size_t next_session_ = 0;
  int64_t outstanding_ = 0;
  int64_t ops_in_window_ = 0;
  sim::Histogram hist_;
};

}  // namespace internal

/**
 * Measures one open-loop point: `offered_iops` spread round-robin over
 * the given sessions (Poisson arrivals). Returns achieved throughput
 * and read-latency stats over the window.
 */
inline LoadPoint MeasureOpenLoop(sim::Simulator& sim,
                                 std::vector<client::IoSession*> sessions,
                                 double offered_iops, double read_fraction,
                                 uint32_t sectors,
                                 sim::TimeNs warmup = sim::Millis(50),
                                 sim::TimeNs duration = sim::Millis(250),
                                 uint64_t seed = 9) {
  internal::OpenLoopDriver driver(sim, std::move(sessions), offered_iops,
                                  read_fraction, sectors, seed);
  return driver.Measure(warmup, duration);
}

/** Convenience overload over a BenchWorld's simulator. */
inline LoadPoint MeasureOpenLoop(BenchWorld& world,
                                 std::vector<client::IoSession*> sessions,
                                 double offered_iops, double read_fraction,
                                 uint32_t sectors,
                                 sim::TimeNs warmup = sim::Millis(50),
                                 sim::TimeNs duration = sim::Millis(250),
                                 uint64_t seed = 9) {
  return MeasureOpenLoop(world.sim, std::move(sessions), offered_iops,
                         read_fraction, sectors, warmup, duration, seed);
}

}  // namespace reflex::bench

#endif  // REFLEX_BENCH_COMMON_H_
