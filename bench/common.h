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
#include "client/load_generator.h"
#include "client/reflex_client.h"
#include "core/reflex_server.h"
#include "flash/calibration.h"
#include "flash/flash_device.h"
#include "net/network.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "sim/histogram.h"
#include "sim/simulator.h"

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

/**
 * Steps the simulator in 1ms slices until the future resolves; aborts
 * the bench if the simulated clock reaches `deadline` first.
 */
template <typename T>
T Await(sim::Simulator& sim, sim::Future<T> future,
        sim::TimeNs deadline = sim::Seconds(600)) {
  while (!future.Ready() && sim.Now() < deadline) {
    sim.RunUntil(sim.Now() + sim::Millis(1));
  }
  if (!future.Ready()) {
    std::fprintf(stderr, "bench deadline exceeded\n");
    std::abort();
  }
  return future.Get();
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

  /** Steps the simulator until the future resolves; see bench::Await. */
  template <typename T>
  T Await(sim::Future<T> future, sim::TimeNs deadline = sim::Seconds(600)) {
    return bench::Await(sim, std::move(future), deadline);
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
 * Address span of the bench load drivers: 4M pages of 4KB, the range
 * the paper's random-I/O experiments spread over.
 */
constexpr uint64_t kBenchSpanSectors = 32'000'000;

/**
 * QD-1 latency probe over any IoSession: issues `samples` random 4KB
 * I/Os one at a time and returns the latency histogram (the
 * methodology of the paper's Table 2 and of mutilate's latency agent).
 */
inline sim::Histogram ProbeLatency(BenchWorld& world,
                                   client::IoSession& session, bool is_read,
                                   int samples, uint64_t seed = 7) {
  client::LoadGenSpec spec;
  spec.read_fraction = is_read ? 1.0 : 0.0;
  spec.queue_depth = 1;
  spec.stop_after_ops = samples;
  spec.lba_span_sectors = kBenchSpanSectors;
  spec.seed = seed;
  client::LoadGenerator probe(world.sim, session, spec);
  probe.Run(0, 0);
  world.Await(probe.Done());
  return is_read ? probe.read_latency() : probe.write_latency();
}

/** One measured point of a latency-throughput curve. */
struct LoadPoint {
  double offered_iops = 0.0;
  double achieved_iops = 0.0;
  sim::TimeNs read_p95 = 0;
  sim::TimeNs read_mean = 0;
};

/**
 * Measures one open-loop point: `offered_iops` split evenly over the
 * given sessions, each driven by its own Poisson generator. Returns
 * achieved throughput and read-latency stats over the window.
 */
inline LoadPoint MeasureOpenLoop(sim::Simulator& sim,
                                 std::vector<client::IoSession*> sessions,
                                 double offered_iops, double read_fraction,
                                 uint32_t sectors,
                                 sim::TimeNs warmup = sim::Millis(50),
                                 sim::TimeNs duration = sim::Millis(250),
                                 uint64_t seed = 9) {
  const sim::TimeNs warm_end = sim.Now() + warmup;
  const sim::TimeNs end = warm_end + duration;
  std::vector<std::unique_ptr<client::LoadGenerator>> generators;
  for (size_t i = 0; i < sessions.size(); ++i) {
    client::LoadGenSpec spec;
    spec.read_fraction = read_fraction;
    spec.request_bytes = sectors * sessions[i]->sector_bytes();
    spec.offered_iops = offered_iops / static_cast<double>(sessions.size());
    spec.lba_span_sectors = kBenchSpanSectors;
    spec.seed = seed + i;
    generators.push_back(
        std::make_unique<client::LoadGenerator>(sim, *sessions[i], spec));
  }
  for (auto& g : generators) g->Run(warm_end, end);
  sim::Histogram reads;
  int64_t ops = 0;
  for (auto& g : generators) {
    Await(sim, g->Done(), end + sim::Seconds(5));
    reads.Merge(g->read_latency());
    ops += g->ops_in_window();
  }
  LoadPoint point;
  point.offered_iops = offered_iops;
  point.achieved_iops = static_cast<double>(ops) / sim::ToSeconds(duration);
  point.read_p95 = reads.Percentile(0.95);
  point.read_mean = static_cast<sim::TimeNs>(reads.Mean());
  return point;
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

/**
 * One of the four Figure 5 tenants, A-D, with its client, session and
 * load generator.
 */
struct QosTenant {
  const char* name = "";
  core::TenantClass cls = core::TenantClass::kBestEffort;
  core::SloSpec slo;  // LC only
  std::unique_ptr<client::ReflexClient> client;
  std::unique_ptr<client::TenantSession> session;
  std::unique_ptr<client::LoadGenerator> generator;

  bool lc() const { return cls == core::TenantClass::kLatencyCritical; }
};

/** The single-threaded server the four-tenant QoS benches share. */
inline core::ServerOptions QosServerOptions() {
  core::ServerOptions options;
  options.num_threads = 1;
  // NEG_LIMIT is an empirical knob (the paper uses -50 on its device);
  // our device needs a slightly deeper burst allowance to absorb runs
  // of 10-token writes from tenant B without queueing its reads.
  options.qos.neg_limit = -150.0;
  return options;
}

/**
 * Registers the Figure 5 tenants on `world`'s server and builds their
 * load: A (LC, 120K IOPS, 100% reads) and B (LC, `b_offered_iops`, 80%
 * reads) paced open loop; C (BE, 95% reads) and D (BE, 25% reads)
 * closed loop at QD32. `trace_sample_every` is passed to every client.
 */
inline std::vector<QosTenant> AddQosTenants(BenchWorld& world,
                                            double b_offered_iops,
                                            uint32_t trace_sample_every = 0) {
  struct Mix {
    const char* name;
    core::TenantClass cls;
    core::SloSpec slo;
    double offered_iops;  // 0 => closed loop
    double read_fraction;
  };
  // SLOs carry ~8% headroom over the offered load: a token bucket
  // drained at exactly its fill rate is a critically-loaded queue
  // whose delay grows without bound, so any real SLO reservation must
  // exceed the expected demand (see EXPERIMENTS.md).
  const Mix mix[] = {
      {"A(LC,100%rd)", core::TenantClass::kLatencyCritical,
       {130000, 1.0, sim::Micros(500), 0.95, 4096}, 120000, 1.0},
      {"B(LC,80%rd)", core::TenantClass::kLatencyCritical,
       {76000, 0.8, sim::Micros(500), 0.95, 4096}, b_offered_iops, 0.8},
      {"C(BE,95%rd)", core::TenantClass::kBestEffort, {}, 0, 0.95},
      {"D(BE,25%rd)", core::TenantClass::kBestEffort, {}, 0, 0.25},
  };
  std::vector<QosTenant> tenants;
  int idx = 0;
  for (const Mix& m : mix) {
    QosTenant t;
    t.name = m.name;
    t.cls = m.cls;
    t.slo = m.slo;
    core::Tenant* tenant = world.server->RegisterTenant(m.slo, m.cls);
    if (tenant == nullptr) {
      std::fprintf(stderr, "tenant %s inadmissible!\n", m.name);
      std::abort();
    }
    client::ReflexClient::Options copts;
    copts.stack = net::StackCosts::IxDataplane();
    copts.num_connections = 8;
    copts.seed = 500 + idx;
    copts.trace_sample_every = trace_sample_every;
    t.client = std::make_unique<client::ReflexClient>(
        world.sim, *world.server,
        world.client_machines[idx % world.client_machines.size()], copts);
    t.session = t.client->AttachSession(tenant->handle());

    client::LoadGenSpec spec;
    spec.read_fraction = m.read_fraction;
    if (m.offered_iops > 0) {
      spec.offered_iops = m.offered_iops;
      // LC load is paced (mutilate agents driving a fixed rate).
      spec.poisson_arrivals = false;
    } else {
      spec.queue_depth = 32;
    }
    spec.seed = 900 + idx;
    t.generator = std::make_unique<client::LoadGenerator>(
        world.sim, *t.session, spec);
    tenants.push_back(std::move(t));
    ++idx;
  }
  return tenants;
}

/** Measurement window [kQosWarmEnd, kQosEnd) of the QoS benches. */
constexpr sim::TimeNs kQosWarmEnd = sim::Millis(150);
constexpr sim::TimeNs kQosEnd = sim::Millis(650);

/** Runs every tenant's load over the window and waits for the drain. */
inline void RunQosTenants(BenchWorld& world,
                          std::vector<QosTenant>& tenants) {
  for (QosTenant& t : tenants) t.generator->Run(kQosWarmEnd, kQosEnd);
  for (QosTenant& t : tenants) {
    world.Await(t.generator->Done(), sim::Seconds(120));
  }
}

}  // namespace reflex::bench

#endif  // REFLEX_BENCH_COMMON_H_
