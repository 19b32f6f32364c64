#include "baseline/local_nvme_driver.h"

#include <algorithm>

#include "core/protocol.h"
#include "sim/logging.h"

namespace reflex::baseline {

namespace {

/** Submission-path kernel cost (syscall + bio + blk-mq + doorbell). */
constexpr sim::TimeNs kSubmitCost = sim::Micros(4.5);

/** Completion-path kernel cost (irq handler + blk-mq + wake). */
constexpr sim::TimeNs kCompleteCost = sim::Micros(5.0);

}  // namespace

LocalNvmeDriver::LocalNvmeDriver(sim::Simulator& sim,
                                 flash::FlashDevice& device,
                                 Options options)
    : DeviceSession(sim, device, options.num_contexts),
      options_(options),
      rng_(options.seed, "local_nvme_driver"),
      contexts_(options.num_contexts) {
  for (auto& ctx : contexts_) {
    ctx.qp = device_.AllocQueuePair();
    REFLEX_CHECK(ctx.qp != nullptr);
  }
}

LocalNvmeDriver::~LocalNvmeDriver() {
  for (auto& ctx : contexts_) {
    if (ctx.qp->Outstanding() == 0) device_.FreeQueuePair(ctx.qp);
  }
}

sim::Task LocalNvmeDriver::DoIo(int ctx_index, bool is_read, uint64_t lba,
                                uint32_t sectors, uint8_t* data,
                                sim::Promise<client::IoResult> promise) {
  const sim::TimeNs issue_time = sim_.Now();
  Context& ctx = contexts_[ctx_index];

  const sim::TimeNs submit_start = std::max(sim_.Now(), ctx.submit_free);
  ctx.submit_free = submit_start + kSubmitCost;
  co_await sim::Delay(sim_, ctx.submit_free - sim_.Now());

  sim::Promise<core::ReqStatus> device_done(sim_);
  auto device_future = device_done.GetFuture();
  const bool ok = device_.Submit(
      ctx.qp, Command(is_read, lba, sectors, data),
      [device_done, data](const flash::FlashCompletion& c) mutable {
        CopyOut(c, data);
        device_done.Set(c.status == flash::FlashStatus::kOk
                            ? core::ReqStatus::kOk
                            : core::ReqStatus::kDeviceError);
      });
  core::ReqStatus status = core::ReqStatus::kOutOfResources;
  if (ok) status = co_await device_future;

  // Interrupt delivery + serialized completion processing.
  const auto irq = static_cast<sim::TimeNs>(
      rng_.NextDouble() * static_cast<double>(options_.irq_coalesce_max));
  const sim::TimeNs rx_start =
      std::max(sim_.Now() + irq, ctx.complete_free);
  ctx.complete_free = rx_start + kCompleteCost;
  co_await sim::Delay(sim_, ctx.complete_free - sim_.Now());

  client::IoResult result;
  result.status = status;
  result.issue_time = issue_time;
  result.complete_time = sim_.Now();
  promise.Set(result);
}

}  // namespace reflex::baseline
