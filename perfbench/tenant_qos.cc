// tenant_qos: one server, two dataplane threads, two paced
// latency-critical tenants and ~2,000 low-rate best-effort tenants.
// The paper's LC-vs-BE isolation (Fig. 5) at the tenant count where the
// per-tenant scheduler walks and per-registration rate recomputation
// dominate host time (Fig. 6b).

#include <memory>
#include <string>
#include <vector>

#include "client/reflex_client.h"
#include "open_loop.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct LcTenant {
  double iops;
  double read_fraction;
  core::SloSpec slo;
};

}  // namespace

void RunTenantQos(const RunOptions& opts, Report& report) {
  const int64_t setup_start = CpuNanos();
  constexpr int kNumBe = 2000;
  constexpr int kBePerClient = 250;
  constexpr double kBeIops = 20.0;
  const sim::TimeNs warmup = 100'000'000;
  const sim::TimeNs window = opts.smoke ? 100'000'000 : 1'000'000'000;

  core::ServerOptions options;
  options.num_threads = 2;
  // Burst allowance for runs of 10-token writes (as in fig5_qos).
  options.qos.neg_limit = -150.0;
  World world(options, /*client_machines=*/6, opts.seed);
  sim::Simulator& sim = world.sim;

  // Reservations carry ~10% headroom over the paced offered load.
  const std::vector<LcTenant> lc_specs = {
      {100000, 1.0, {110000, 1.0, kSlo, 0.95, 4096}},  // LC-A
      {40000, 0.8, {44000, 0.8, kSlo, 0.95, 4096}},    // LC-B
  };

  // Stamped blocks sit above the random-I/O span, so only verified
  // requests touch them.
  const uint64_t capacity = world.device.profile().capacity_sectors;
  const uint64_t span = capacity / 2;
  std::vector<uint64_t> stamp_lbas;
  for (uint64_t i = 0; i < 256; ++i) stamp_lbas.push_back(span + i * 8);
  StampedBlocks stamps(stamp_lbas, opts.seed, opts.plant);

  RegisterTimer registrations;
  auto register_tenant = [&](const core::SloSpec& slo,
                             core::TenantClass cls) {
    const int64_t t0 = CpuNanos();
    core::Tenant* t = world.server->RegisterTenant(slo, cls);
    registrations.ns.push_back(CpuNanos() - t0);
    World::AbortUnless(t != nullptr, "tenant admission refused");
    return t;
  };

  CallStats submit_calls;
  std::vector<std::unique_ptr<client::ReflexClient>> clients;
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  std::vector<std::unique_ptr<TimedSession>> timed;
  auto session_for = [&](client::TenantSession& s) -> client::IoSession& {
    if (!opts.trace) return s;
    timed.push_back(std::make_unique<TimedSession>(s, true, &submit_calls));
    return *timed.back();
  };
  client::ReflexClient::Options base;
  base.stack = net::StackCosts::IxDataplane();
  base.trace_sample_every = opts.trace ? 1 : 0;

  std::vector<ClassTotals> lc(lc_specs.size());
  ClassTotals be;
  std::vector<std::unique_ptr<OpenLoopTenant>> tenants;
  uint64_t stream = opts.seed * 1000003;
  for (size_t k = 0; k < lc_specs.size(); ++k) {
    const LcTenant& spec = lc_specs[k];
    core::Tenant* t =
        register_tenant(spec.slo, core::TenantClass::kLatencyCritical);
    client::ReflexClient::Options copts = base;
    copts.num_connections = 8;
    copts.seed = opts.seed + 500 + k;
    clients.push_back(std::make_unique<client::ReflexClient>(
        sim, *world.server, world.client_machines[k], copts));
    sessions.push_back(clients.back()->AttachSession(t->handle()));
    OpenLoopSpec ol;
    ol.iops = spec.iops;
    ol.poisson = false;  // mutilate agents pacing a fixed rate
    ol.read_fraction = spec.read_fraction;
    ol.span_sectors = span;
    if (spec.read_fraction < 1.0) {
      ol.stamps = &stamps;
      ol.stamp_fraction = 0.05;
    }
    tenants.push_back(std::make_unique<OpenLoopTenant>(
        sim, session_for(*sessions.back()), ol, ++stream, &lc[k]));
  }
  WriteInitialStamps(sim, *sessions.back(), stamps);

  // Best-effort tenants share connection pools, one connection each,
  // as in fig6b_tenant_scaling; one in ten is 50/50 read/write.
  for (int made = 0; made < kNumBe; made += kBePerClient) {
    const int batch = std::min(kBePerClient, kNumBe - made);
    client::ReflexClient::Options copts = base;
    copts.num_connections = batch;
    copts.seed = opts.seed + 4000 + made;
    auto c = std::make_unique<client::ReflexClient>(
        sim, *world.server,
        world.client_machines[2 + (made / kBePerClient) % 4], copts);
    for (int i = 0; i < batch; ++i) c->OpenConnection();
    for (int i = 0; i < batch; ++i) {
      core::Tenant* t =
          register_tenant(core::SloSpec{}, core::TenantClass::kBestEffort);
      sessions.push_back(c->AttachSession(t->handle()));
      OpenLoopSpec ol;
      ol.iops = kBeIops;
      ol.read_fraction = (made + i) % 10 == 0 ? 0.5 : 1.0;
      ol.span_sectors = span;
      ol.lane = i;
      tenants.push_back(std::make_unique<OpenLoopTenant>(
          sim, session_for(*sessions.back()), ol, ++stream, &be));
    }
    clients.push_back(std::move(c));
  }
  const int64_t setup_ns = CpuNanos() - setup_start;

  const std::vector<core::ReflexServer*> servers = {world.server.get()};
  ServerReadings before;
  if (opts.trace) before = ReadServers(servers);
  const sim::TimeNs window_start = sim.Now() + warmup;
  const sim::TimeNs end = window_start + window;
  const int64_t events_before = sim.EventsProcessed();
  const sim::TimeNs sim_before = sim.Now();

  const int64_t run_start = CpuNanos();
  const DrainResult drain = RunOpenLoop(sim, tenants, window_start, end);
  const int64_t run_ns = CpuNanos() - run_start;

  report.Host("setup_s", static_cast<double>(setup_ns) / 1e9, "s");
  report.Host("run_s", static_cast<double>(run_ns) / 1e9, "s");
  report.Host("peak_rss_mb", PeakRssMb(), "MB");
  double offered = kNumBe * kBeIops;
  for (const LcTenant& spec : lc_specs) offered += spec.iops;
  ReportOpenLoop(report, lc, be, drain, window_start, end, offered);

  report.Check(stamps.verified_reads() > 0, "stamped blocks were read back");
  report.Check(stamps.mismatches() == 0,
               "every stamped read returned the last acknowledged write");
  report.Check(report.failed == 0, "no request failed");
  report.Note("stamped reads verified: " +
              std::to_string(stamps.verified_reads()));

  if (!opts.trace) return;
  LayerMetrics layers;
  int64_t requests = 0;
  for (const auto& t : tenants) requests += t->issued();
  layers.FromServers(Diff(ReadServers(servers), before), requests,
                     sim.EventsProcessed() - events_before, run_ns,
                     static_cast<int64_t>(sim.PeakPendingEvents()),
                     sim.Now() - sim_before);
  registrations.Emit(layers);
  layers.Set("client.submit_host_ns", submit_calls.MeanNs());
  int64_t timeouts = 0;
  int64_t retries = 0;
  for (const auto& c : clients) {
    timeouts += c->fault_stats().timeouts;
    retries += c->fault_stats().retries;
  }
  layers.Set("client.timeouts", static_cast<double>(timeouts));
  layers.Set("client.retries", static_cast<double>(retries));
  layers.Emit(report);
}

}  // namespace perfbench
