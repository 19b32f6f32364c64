#include "baseline/local_spdk.h"

#include <algorithm>

#include "sim/logging.h"

namespace reflex::baseline {

LocalSpdkService::LocalSpdkService(sim::Simulator& sim,
                                   flash::FlashDevice& device,
                                   Options options)
    : DeviceSession(sim, device, options.num_threads), options_(options) {
  for (int i = 0; i < options_.num_threads; ++i) {
    flash::QueuePair* qp = device_.AllocQueuePair();
    REFLEX_CHECK(qp != nullptr);
    qps_.push_back(qp);
    core_free_.push_back(0);
  }
}

LocalSpdkService::~LocalSpdkService() {
  for (flash::QueuePair* qp : qps_) {
    if (qp->Outstanding() == 0) device_.FreeQueuePair(qp);
  }
}

sim::Task LocalSpdkService::DoIo(int thread, bool is_read, uint64_t lba,
                                 uint32_t sectors, uint8_t* data,
                                 sim::Promise<client::IoResult> promise) {
  const sim::TimeNs issue_time = sim_.Now();

  // Submission half of the polling loop, serialized on this thread's
  // core (half the per-request CPU on each side of the device I/O).
  const sim::TimeNs submit_cpu = options_.cpu_per_req / 2;
  const sim::TimeNs submit_start = std::max(sim_.Now(), core_free_[thread]);
  core_free_[thread] = submit_start + submit_cpu;
  co_await sim::Delay(sim_, core_free_[thread] - sim_.Now());

  sim::Promise<client::IoResult> device_done(sim_);
  auto device_future = device_done.GetFuture();
  const bool ok = device_.Submit(
      qps_[thread], Command(is_read, lba, sectors, data),
      [this, device_done, data](const flash::FlashCompletion& c) mutable {
        CopyOut(c, data);
        client::IoResult r;
        r.status = c.status == flash::FlashStatus::kOk
                       ? core::ReqStatus::kOk
                       : core::ReqStatus::kDeviceError;
        r.complete_time = sim_.Now();
        device_done.Set(r);
      });
  if (!ok) {
    client::IoResult r;
    r.status = core::ReqStatus::kOutOfResources;
    r.issue_time = issue_time;
    r.complete_time = sim_.Now();
    promise.Set(r);
    co_return;
  }
  client::IoResult result = co_await device_future;

  // Completion half of the polling loop.
  const sim::TimeNs complete_cpu = options_.cpu_per_req - submit_cpu;
  const sim::TimeNs complete_start =
      std::max(sim_.Now(), core_free_[thread]);
  core_free_[thread] = complete_start + complete_cpu;
  co_await sim::Delay(sim_, core_free_[thread] - sim_.Now());

  result.issue_time = issue_time;
  result.complete_time = sim_.Now();
  promise.Set(result);
}

}  // namespace reflex::baseline
