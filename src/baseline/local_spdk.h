#ifndef REFLEX_BASELINE_LOCAL_SPDK_H_
#define REFLEX_BASELINE_LOCAL_SPDK_H_

#include <cstdint>
#include <vector>

#include "baseline/device_session.h"
#include "flash/flash_device.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace reflex::baseline {

/**
 * Local Flash access through SPDK-style user-space NVMe queues: no
 * kernel, no network -- the best case the paper compares against
 * (Table 2 "Local", Figure 4 "Local-nT"). Each thread polls its own
 * queue pair; the per-request CPU cost reproduces the paper's
 * observation that one core sustains ~870K IOPS and two cores saturate
 * a 1M IOPS device. One lane per thread.
 */
class LocalSpdkService : public DeviceSession {
 public:
  struct Options {
    int num_threads = 1;

    /** Polling-mode driver CPU per request (submit + completion). */
    sim::TimeNs cpu_per_req = sim::TimeNs(1150);

    uint64_t seed = 33;
  };

  LocalSpdkService(sim::Simulator& sim, flash::FlashDevice& device,
                   Options options);
  ~LocalSpdkService() override;

 private:
  sim::Task DoIo(int thread, bool is_read, uint64_t lba, uint32_t sectors,
                 uint8_t* data,
                 sim::Promise<client::IoResult> promise) override;

  Options options_;
  std::vector<flash::QueuePair*> qps_;
  std::vector<sim::TimeNs> core_free_;
};

}  // namespace reflex::baseline

#endif  // REFLEX_BASELINE_LOCAL_SPDK_H_
