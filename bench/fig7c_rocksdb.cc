// Reproduces Figure 7c: RocksDB-style key-value store performance on
// local vs remote Flash, via the mini-LSM store and db_bench-style
// workloads (see DESIGN.md for the RocksDB substitution).
//
// Paper: bulkload (BL) is nearly identical everywhere (the Flash
// itself limits write throughput); randomread (RR) and
// readwhilewriting (RwW) slow by 32% / 27% on iSCSI but <4% on ReFlex.

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/kv/db_bench.h"
#include "apps/kv/kv_store.h"
#include "baseline/kernel_server.h"
#include "baseline/local_nvme_driver.h"
#include "bench/common.h"
#include "client/block_device.h"
#include "client/storage_backend.h"

namespace reflex {
namespace {

struct PhaseTimes {
  double bl_s = 0, rr_s = 0, rww_s = 0;
};

PhaseTimes RunAll(bench::BenchWorld& world,
                  client::StorageBackend& backend) {
  apps::kv::KvStore::Options kv_options;
  kv_options.region_offset = 0;
  kv_options.region_bytes = 8ULL << 30;
  kv_options.memtable_bytes = 2ULL << 20;
  kv_options.block_cache_blocks = 1024;  // small cache: Flash-bound
  apps::kv::KvStore store(world.sim, backend, kv_options);

  apps::kv::DbBench::Config cfg;
  cfg.num_keys = 60000;
  cfg.value_bytes = 400;
  cfg.read_threads = 8;
  cfg.reads_per_thread = 3000;
  cfg.write_rate = 3000;
  apps::kv::DbBench bench(world.sim, store, cfg);

  PhaseTimes t;
  auto bl = world.Await(bench.BulkLoad(), sim::Seconds(1200));
  t.bl_s = sim::ToSeconds(bl.duration);
  auto rr = world.Await(bench.RandomRead(), sim::Seconds(1200));
  t.rr_s = sim::ToSeconds(rr.duration);
  auto rww = world.Await(bench.ReadWhileWriting(), sim::Seconds(1200));
  t.rww_s = sim::ToSeconds(rww.duration);
  std::printf(
      "#   BL %.0f ops/s; RR %.0f ops/s (p95 %.0fus, miss=%lld); RwW "
      "%.0f ops/s (p95 %.0fus)\n",
      bl.ops_per_sec, rr.ops_per_sec, rr.latency.Percentile(0.95) / 1e3,
      static_cast<long long>(rr.not_found), rww.ops_per_sec,
      rww.latency.Percentile(0.95) / 1e3);
  return t;
}

void Run() {
  PhaseTimes local_t;
  {
    bench::BenchWorld world;
    baseline::LocalNvmeDriver::Options o;
    o.num_contexts = 5;
    baseline::LocalNvmeDriver local(world.sim, world.device, o);
    client::SessionStorageBackend backend(local);
    std::printf("# Local (kernel NVMe driver)\n");
    local_t = RunAll(world, backend);
  }
  PhaseTimes iscsi_t;
  {
    bench::BenchWorld world;
    baseline::KernelStorageServer iscsi(
        world.sim, world.net, world.client_machines[0],
        world.server_machine, world.device,
        baseline::BaselineCosts::Iscsi(), 12);
    client::SessionStorageBackend backend(iscsi);
    std::printf("# iSCSI\n");
    iscsi_t = RunAll(world, backend);
  }
  PhaseTimes reflex_t;
  {
    bench::BenchWorld world;
    core::Tenant* tenant = world.server->RegisterTenant(
        core::SloSpec{}, core::TenantClass::kBestEffort);
    client::BlockDevice bdev(world.sim, *world.server,
                             world.client_machines[0], tenant->handle(),
                             client::BlockDevice::Options{});
    std::printf("# ReFlex (remote block device)\n");
    reflex_t = RunAll(world, bdev);
  }

  auto print_row = [](const char* phase, double local_s, double iscsi_s,
                      double reflex_s, double paper_iscsi,
                      double paper_reflex) {
    std::printf(
        "%-4s %10.3f %10.3f %10.3f | slowdown: iSCSI %.2fx (paper "
        "~%.2fx), ReFlex %.2fx (paper ~%.2fx)\n",
        phase, local_s, iscsi_s, reflex_s, iscsi_s / local_s, paper_iscsi,
        reflex_s / local_s, paper_reflex);
  };
  std::printf("\n%-4s %10s %10s %10s\n", "test", "local_s", "iscsi_s",
              "reflex_s");
  print_row("BL", local_t.bl_s, iscsi_t.bl_s, reflex_t.bl_s, 1.02, 1.00);
  print_row("RR", local_t.rr_s, iscsi_t.rr_s, reflex_t.rr_s, 1.32, 1.04);
  print_row("RwW", local_t.rww_s, iscsi_t.rww_s, reflex_t.rww_s, 1.27,
            1.04);
  std::printf(
      "\nCheck: BL nearly identical across systems (Flash-limited\n"
      "writes); RR and RwW ~30%% slower on iSCSI but <4%% on ReFlex.\n");
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::bench::Banner(
      "Figure 7c - RocksDB-style LSM store slowdown vs local",
      "bulkload / randomread / readwhilewriting");
  reflex::Run();
  return 0;
}
