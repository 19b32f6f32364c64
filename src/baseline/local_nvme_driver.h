#ifndef REFLEX_BASELINE_LOCAL_NVME_DRIVER_H_
#define REFLEX_BASELINE_LOCAL_NVME_DRIVER_H_

#include <cstdint>
#include <vector>

#include "baseline/device_session.h"
#include "flash/flash_device.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace reflex::baseline {

/**
 * The local kernel NVMe block driver: what legacy applications use
 * when Flash is local (Figure 7 "Local"). Models the Linux block layer
 * (blk-mq contexts, one per core), interrupt-driven completions and
 * per-request kernel CPU costs. Slower per-core than SPDK polling but
 * scales with contexts until the device saturates. One lane per
 * context.
 */
class LocalNvmeDriver : public DeviceSession {
 public:
  struct Options {
    /** blk-mq hardware contexts (application threads). */
    int num_contexts = 5;

    /** Interrupt coalescing window (matches the testbed's 20us). */
    sim::TimeNs irq_coalesce_max = sim::Micros(20);

    uint64_t seed = 77;
  };

  LocalNvmeDriver(sim::Simulator& sim, flash::FlashDevice& device,
                  Options options);
  ~LocalNvmeDriver() override;

 private:
  struct Context {
    flash::QueuePair* qp = nullptr;
    sim::TimeNs submit_free = 0;
    sim::TimeNs complete_free = 0;
  };

  sim::Task DoIo(int ctx_index, bool is_read, uint64_t lba,
                 uint32_t sectors, uint8_t* data,
                 sim::Promise<client::IoResult> promise) override;

  Options options_;
  sim::Rng rng_;
  std::vector<Context> contexts_;
};

}  // namespace reflex::baseline

#endif  // REFLEX_BASELINE_LOCAL_NVME_DRIVER_H_
