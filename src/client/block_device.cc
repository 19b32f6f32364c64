#include "client/block_device.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace reflex::client {

namespace {

/** bio + blk-mq submission-path CPU cost per request. */
constexpr sim::TimeNs kBlockSubmitCost = sim::Micros(3.0);

/** blk-mq completion-path CPU cost per request. */
constexpr sim::TimeNs kBlockCompleteCost = sim::Micros(2.0);

/** Application wakeup after completion (blocking callers). */
constexpr sim::TimeNs kAppWakeup = sim::Micros(4.0);

}  // namespace

BlockDevice::BlockDevice(sim::Simulator& sim, core::ReflexServer& server,
                         net::Machine* machine, uint32_t tenant_handle,
                         Options options)
    : sim_(sim),
      server_(server),
      options_(options),
      rng_(options.seed, "block_device"),
      contexts_(options.num_contexts) {
  REFLEX_CHECK(options_.num_contexts >= 1);
  // One socket per hardware context; the kernel path is modeled here,
  // so the underlying user-level library runs with a null stack.
  ReflexClient::Options client_options;
  client_options.stack = net::StackCosts::Null();
  client_options.num_connections = options_.num_contexts;
  client_options.seed = options_.seed ^ 0xb10c;
  client_options.retry = options_.retry;
  client_ = std::make_unique<ReflexClient>(sim, server, machine,
                                           client_options);
  session_ = client_->AttachSession(tenant_handle);
  REFLEX_CHECK(session_ != nullptr);
}

uint64_t BlockDevice::CapacityBytes() const {
  return server_.device().profile().capacity_sectors * core::kSectorBytes;
}

sim::Future<IoResult> BlockDevice::Read(uint64_t byte_offset, uint32_t bytes,
                                        uint8_t* data) {
  return SubmitSplit(/*is_read=*/true, byte_offset, bytes, data);
}

sim::Future<IoResult> BlockDevice::Write(uint64_t byte_offset,
                                         uint32_t bytes, uint8_t* data) {
  return SubmitSplit(/*is_read=*/false, byte_offset, bytes, data);
}

sim::Future<IoResult> BlockDevice::SubmitSplit(bool is_read,
                                               uint64_t byte_offset,
                                               uint32_t bytes,
                                               uint8_t* data) {
  REFLEX_CHECK(bytes > 0);
  if (data != nullptr) {
    REFLEX_CHECK(byte_offset % core::kSectorBytes == 0);
    REFLEX_CHECK(bytes % core::kSectorBytes == 0);
  }
  const uint64_t first_lba = byte_offset / core::kSectorBytes;
  const uint64_t end_lba =
      (byte_offset + bytes + core::kSectorBytes - 1) / core::kSectorBytes;
  auto total_sectors = static_cast<uint32_t>(end_lba - first_lba);

  // Split into chunks of at most max_request_sectors, one blk-mq
  // context per chunk (round robin).
  int num_chunks = 0;
  {
    uint32_t remaining = total_sectors;
    while (remaining > 0) {
      remaining -= std::min(remaining, options_.max_request_sectors);
      ++num_chunks;
    }
  }
  sim::Promise<IoResult> promise(sim_);
  auto future = promise.GetFuture();
  const uint32_t join = joins_.Add(
      Join{num_chunks, core::ReqStatus::kOk, sim_.Now(), std::move(promise)});

  uint64_t lba = first_lba;
  uint32_t remaining = total_sectors;
  uint8_t* chunk_data = data;
  while (remaining > 0) {
    const uint32_t chunk = std::min(remaining, options_.max_request_sectors);
    const int ctx = next_ctx_;
    next_ctx_ = (next_ctx_ + 1) % options_.num_contexts;
    DoChunk(ctx, is_read, lba, chunk, chunk_data, join);
    lba += chunk;
    remaining -= chunk;
    if (chunk_data != nullptr) {
      chunk_data += static_cast<size_t>(chunk) * core::kSectorBytes;
    }
  }

  if (is_read) {
    ++reads_completed_;
    bytes_read_ += bytes;
  } else {
    ++writes_completed_;
    bytes_written_ += bytes;
  }
  return future;
}

sim::Task BlockDevice::DoChunk(int ctx_index, bool is_read, uint64_t lba,
                               uint32_t sectors, uint8_t* data,
                               uint32_t join) {
  Context& ctx = contexts_[ctx_index];

  // Submission path: bio + blk-mq + kernel TCP tx, serialized on the
  // context's core.
  const uint32_t wire_tx =
      is_read ? core::kRequestHeaderBytes
              : core::kRequestHeaderBytes + sectors * core::kSectorBytes;
  const sim::TimeNs submit_cost =
      kBlockSubmitCost + options_.stack.TxCost(wire_tx);
  const sim::TimeNs submit_start = std::max(sim_.Now(), ctx.core_free);
  ctx.core_free = submit_start + submit_cost;
  co_await sim::Delay(sim_, ctx.core_free - sim_.Now());

  IoResult r;
  if (is_read) {
    r = co_await session_->Read(lba, sectors, data, ctx_index);
  } else {
    r = co_await session_->Write(lba, sectors, data, ctx_index);
  }
  // A failed chunk fails the whole request with its status.
  if (!r.ok()) joins_[join].status = r.status;

  // Completion path: interrupt delivery, then the context's completion
  // kthread processes responses serially.
  const uint32_t payload = is_read ? sectors * core::kSectorBytes : 0;
  const sim::TimeNs after_irq =
      sim_.Now() + options_.stack.SampleDeliveryDelay(rng_);
  const sim::TimeNs rx_cost =
      options_.stack.RxCost(payload) + kBlockCompleteCost;
  const sim::TimeNs rx_start = std::max(after_irq, ctx.core_free);
  ctx.core_free = rx_start + rx_cost;
  co_await sim::Delay(sim_, ctx.core_free - sim_.Now());

  if (--joins_[join].remaining > 0) co_return;
  // The last chunk completes the request: one hop through the event
  // queue (where a join barrier would resume its waiter), then the
  // application wakeup.
  co_await sim::Delay(sim_, 0);
  co_await sim::Delay(sim_, kAppWakeup);
  Join done = joins_.Take(join);
  IoResult result;
  result.status = done.status;
  result.issue_time = done.issue_time;
  result.complete_time = sim_.Now();
  done.promise.Set(result);
}

}  // namespace reflex::client
