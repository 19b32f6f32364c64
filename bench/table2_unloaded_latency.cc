// Reproduces Table 2: unloaded latency for 4KB random I/Os (QD 1),
// including round-trip network latency for client and server.
//
// Paper values (us, avg / p95):
//   Local (SPDK)            reads  78 /  90   writes  11 /  17
//   iSCSI                   reads 211 / 251   writes 155 / 215
//   Libaio (Linux client)   reads 183 / 205   writes 180 / 205
//   Libaio (IX client)      reads 121 / 139   writes 117 / 144
//   ReFlex (Linux client)   reads 117 / 135   writes  58 /  64
//   ReFlex (IX client)      reads  99 / 113   writes  31 /  34
//   (NVMe-over-Fabrics, quoted: ~8us over local on faster hardware.)

#include <cstdio>
#include <memory>

#include "baseline/kernel_server.h"
#include "baseline/local_spdk.h"
#include "bench/common.h"
#include "client/reflex_client.h"

namespace reflex {
namespace {

struct Row {
  const char* name;
  double paper_read_avg, paper_read_p95;
  double paper_write_avg, paper_write_p95;
};

void Measure(bench::BenchWorld& world, client::IoSession& session,
             const Row& row, int samples) {
  sim::Histogram reads =
      bench::ProbeLatency(world, session, /*is_read=*/true, samples);
  sim::Histogram writes =
      bench::ProbeLatency(world, session, /*is_read=*/false, samples);
  std::printf(
      "%-24s %6.0f %6.0f  (paper %3.0f/%3.0f) | %6.0f %6.0f  "
      "(paper %3.0f/%3.0f)\n",
      row.name, reads.Mean() / 1e3, reads.Percentile(0.95) / 1e3,
      row.paper_read_avg, row.paper_read_p95, writes.Mean() / 1e3,
      writes.Percentile(0.95) / 1e3, row.paper_write_avg,
      row.paper_write_p95);
}

void Run() {
  bench::Banner("Table 2 - unloaded Flash latency (4KB random, QD1)",
                "avg and p95 for local, iSCSI, libaio and ReFlex paths");
  const int kSamples = 500;

  bench::BenchWorld world;
  net::Machine* client = world.client_machines[0];

  std::printf("%-24s %6s %6s %18s | %6s %6s\n", "system", "rd_avg",
              "rd_p95", "", "wr_avg", "wr_p95");

  {
    baseline::LocalSpdkService local(world.sim, world.device,
                                     baseline::LocalSpdkService::Options{});
    Measure(world, local, {"Local (SPDK)", 78, 90, 11, 17}, kSamples);
  }
  {
    baseline::KernelStorageServer iscsi(
        world.sim, world.net, client, world.server_machine, world.device,
        baseline::BaselineCosts::Iscsi(), 4);
    Measure(world, iscsi, {"iSCSI", 211, 251, 155, 215}, kSamples);
  }
  {
    baseline::KernelStorageServer libaio_linux(
        world.sim, world.net, client, world.server_machine, world.device,
        baseline::BaselineCosts::Libaio(net::StackCosts::LinuxBlocking()),
        4);
    Measure(world, libaio_linux, {"Libaio (Linux client)", 183, 205, 180, 205},
            kSamples);
  }
  {
    baseline::KernelStorageServer libaio_ix(
        world.sim, world.net, client, world.server_machine, world.device,
        baseline::BaselineCosts::Libaio(net::StackCosts::IxDataplane()), 4);
    Measure(world, libaio_ix, {"Libaio (IX client)", 121, 139, 117, 144},
            kSamples);
  }

  // ReFlex: LC tenants sized so a QD-1 probe is never token-paced.
  core::SloSpec read_slo;
  read_slo.iops = 50000;
  read_slo.read_fraction = 1.0;
  read_slo.latency = sim::Millis(2);
  core::Tenant* read_tenant = world.server->RegisterTenant(
      read_slo, core::TenantClass::kLatencyCritical);
  core::SloSpec write_slo;
  write_slo.iops = 45000;
  write_slo.read_fraction = 0.0;
  write_slo.latency = sim::Millis(2);
  core::Tenant* write_tenant = world.server->RegisterTenant(
      write_slo, core::TenantClass::kLatencyCritical);

  auto measure_reflex = [&](net::StackCosts stack, const Row& row,
                            const char* label) {
    client::ReflexClient::Options copts;
    copts.stack = stack;
    copts.num_connections = 1;
    // QD-1 probes: trace every request so the per-stage breakdown
    // covers exactly the probe population.
    copts.trace_sample_every = 1;
    client::ReflexClient rc(world.sim, *world.server, client, copts);
    // Both tenants share the one-connection pool opened by the first
    // session (the dataplane reroutes by tenant handle per request).
    auto rd_session = rc.AttachSession(read_tenant->handle());
    auto wr_session = rc.AttachSession(write_tenant->handle());
    world.server->tracer().Reset();
    sim::Histogram reads =
        bench::ProbeLatency(world, *rd_session, true, kSamples);
    const obs::BreakdownTable read_table = world.server->tracer().Table();
    world.server->tracer().Reset();
    sim::Histogram writes =
        bench::ProbeLatency(world, *wr_session, false, kSamples);
    const obs::BreakdownTable write_table = world.server->tracer().Table();
    std::printf(
        "%-24s %6.0f %6.0f  (paper %3.0f/%3.0f) | %6.0f %6.0f  "
        "(paper %3.0f/%3.0f)\n",
        row.name, reads.Mean() / 1e3, reads.Percentile(0.95) / 1e3,
        row.paper_read_avg, row.paper_read_p95, writes.Mean() / 1e3,
        writes.Percentile(0.95) / 1e3, row.paper_write_avg,
        row.paper_write_p95);
    const std::string rd_label = std::string(label) + "_reads";
    const std::string wr_label = std::string(label) + "_writes";
    bench::DumpBreakdown(*world.server, read_table, "table2", rd_label);
    bench::DumpBreakdown(*world.server, write_table, "table2", wr_label);
    bench::CheckBreakdownReconciles(read_table, reads.Mean() / 1e3,
                                    rd_label.c_str());
    bench::CheckBreakdownReconciles(write_table, writes.Mean() / 1e3,
                                    wr_label.c_str());
  };
  measure_reflex(net::StackCosts::LinuxEpoll(),
                 {"ReFlex (Linux client)", 117, 135, 58, 64},
                 "reflex_linux");
  measure_reflex(net::StackCosts::IxDataplane(),
                 {"ReFlex (IX client)", 99, 113, 31, 34}, "reflex_ix");

  std::printf(
      "\nNVMe-over-Fabrics (hardware-accelerated, quoted from [45]):\n"
      "~8us over local Flash on a 40GbE Chelsio NIC + 3.6GHz Haswell --\n"
      "not simulated; included for context as in the paper.\n"
      "\nCheck: ReFlex(IX) adds ~21us to local reads and ~20us to local\n"
      "writes; iSCSI is ~2.8x local read latency.\n");
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::Run();
  return 0;
}
