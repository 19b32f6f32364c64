// Reproduces Figure 7a: FIO p95 latency vs throughput for 4KB random
// reads through the legacy block-device path -- local kernel NVMe
// driver, Linux iSCSI, and the ReFlex remote block-device driver.
//
// Paper: local reaches ~3000 MB/s with 5 threads; ReFlex scales
// linearly with client threads until it saturates the 10GbE link
// (~1200 MB/s) at ~2x lower latency than iSCSI; iSCSI tops out ~4x
// below ReFlex.

#include <cstdio>
#include <memory>
#include <vector>

#include "apps/fio/fio.h"
#include "baseline/kernel_server.h"
#include "baseline/local_nvme_driver.h"
#include "bench/common.h"
#include "client/block_device.h"
#include "client/storage_backend.h"

namespace reflex {
namespace {

void RunCurve(const char* name, bench::BenchWorld& world,
              client::StorageBackend& backend, int threads) {
  std::printf("# %s (%d threads)\n", name, threads);
  for (int qd : {1, 2, 4, 8, 16, 32, 64}) {
    apps::fio::FioJob job;
    job.num_threads = threads;
    job.queue_depth = qd;
    job.block_bytes = 4096;
    job.read_fraction = 1.0;
    job.seed = 42 + qd;
    apps::fio::FioRunner runner(world.sim, backend, job);
    runner.Run(world.sim.Now() + sim::Millis(50),
               world.sim.Now() + sim::Millis(300));
    world.Await(runner.Done(), sim::Seconds(120));
    const apps::fio::FioResult& r = runner.result();
    std::printf("%-10s %4d %12.0f %12.1f %12.1f %12.1f\n", name, qd,
                r.iops, r.iops * 4096 / 1e6,
                r.read_latency.Percentile(0.95) / 1e3,
                r.read_latency.Mean() / 1e3);
  }
  std::printf("\n");
}

void Run() {
  std::printf("%-10s %4s %12s %12s %12s %12s\n", "system", "qd", "iops",
              "MB_per_s", "p95_us", "mean_us");
  {
    bench::BenchWorld world;
    baseline::LocalNvmeDriver::Options o;
    o.num_contexts = 5;  // paper: 5 FIO threads saturate local
    baseline::LocalNvmeDriver local(world.sim, world.device, o);
    client::SessionStorageBackend backend(local);
    RunCurve("Local", world, backend, 5);
  }
  {
    bench::BenchWorld world;
    baseline::KernelStorageServer iscsi(
        world.sim, world.net, world.client_machines[0],
        world.server_machine, world.device,
        baseline::BaselineCosts::Iscsi(), 12);
    client::SessionStorageBackend backend(iscsi);
    RunCurve("iSCSI", world, backend, 3);  // paper: 3 iSCSI threads
  }
  {
    bench::BenchWorld world;
    core::Tenant* tenant = world.server->RegisterTenant(
        core::SloSpec{}, core::TenantClass::kBestEffort);
    client::BlockDevice::Options o;
    o.num_contexts = 6;  // paper: 6 threads to fill 10GbE
    client::BlockDevice bdev(world.sim, *world.server,
                             world.client_machines[0], tenant->handle(),
                             o);
    RunCurve("ReFlex", world, bdev, 6);
  }
  std::printf(
      "Check: Local >> ReFlex > iSCSI in throughput; ReFlex plateaus\n"
      "at the 10GbE line rate (~1200-1250 MB/s) with ~2x lower p95\n"
      "than iSCSI; iSCSI saturates ~4x below ReFlex.\n");
}

}  // namespace
}  // namespace reflex

int main() {
  reflex::bench::Banner(
      "Figure 7a - FIO 4KB random reads over block devices",
      "p95 latency vs throughput: local NVMe vs iSCSI vs ReFlex");
  reflex::Run();
  return 0;
}
