#ifndef REFLEX_FLASH_FLASH_DEVICE_H_
#define REFLEX_FLASH_FLASH_DEVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "flash/device_profile.h"
#include "flash/page_pins.h"
#include "sim/fault.h"
#include "sim/flat_index.h"
#include "sim/histogram.h"
#include "sim/inline_function.h"
#include "sim/random.h"
#include "sim/ring.h"
#include "sim/slot_pool.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace reflex::flash {

/** NVMe command opcode subset used by this model. */
enum class FlashOp : uint8_t { kRead = 0, kWrite = 1 };

/** Completion status. */
enum class FlashStatus : uint8_t {
  kOk = 0,
  kInvalidLba = 1,
  kQueueFull = 2,
  kMediaError = 3,  // uncorrectable error (injected by a FaultPlan)
};

/** One NVMe command. */
struct FlashCommand {
  FlashOp op = FlashOp::kRead;
  uint64_t lba = 0;        // starting sector
  uint32_t sectors = 8;    // length in sectors (8 = 4KB)
  /**
   * Write source of sectors * sector_bytes bytes, copied into the
   * store at submit. Null means a timing-only write (load generators):
   * the store is untouched. Reads never take a buffer (see `pin`).
   */
  const uint8_t* data = nullptr;
  /** Opaque caller context, echoed in the completion. */
  uint64_t cookie = 0;
  /**
   * Read only: pin the stored pages the read covers at submit and hand
   * them back in FlashCompletion::pins. False means a timing-only read.
   */
  bool pin = false;
};

/** Completion record delivered to the submitter's callback. */
struct FlashCompletion {
  FlashStatus status = FlashStatus::kOk;
  uint64_t cookie = 0;
  sim::TimeNs submit_time = 0;
  sim::TimeNs complete_time = 0;
  /**
   * A read's bytes as they stood at submit (FlashCommand::pin): the
   * submitter copies them out. Also set when the read failed, whose
   * bytes nobody should use.
   */
  PagePins pins;

  sim::TimeNs Latency() const { return complete_time - submit_time; }
};

/** Completion callback; its captures live inside the command's slot. */
using FlashCallback = sim::InlineFunction<void(const FlashCompletion&)>;

class FlashDevice;

/**
 * An NVMe submission/completion queue pair. Each ReFlex dataplane
 * thread owns one exclusively (the paper's execution model); the
 * device arbitrates across pairs in simple round-robin, which is
 * exactly why a software QoS scheduler is needed.
 */
class QueuePair {
 public:
  int id() const { return id_; }
  int Outstanding() const { return outstanding_; }
  int Depth() const { return depth_; }

 private:
  friend class FlashDevice;
  QueuePair(FlashDevice* dev, int id, int depth)
      : dev_(dev), id_(id), depth_(depth) {}

  FlashDevice* dev_;
  int id_;
  int depth_;
  int outstanding_ = 0;
};

/** Aggregate device counters. */
struct FlashDeviceStats {
  int64_t reads_completed = 0;
  int64_t writes_completed = 0;
  int64_t read_sectors = 0;
  int64_t write_sectors = 0;
  int64_t gc_stalls = 0;
  int64_t queue_full_rejections = 0;
  // Injected-fault outcomes (always zero without an attached FaultPlan).
  int64_t read_errors = 0;
  int64_t write_errors = 0;
  int64_t latency_spikes = 0;
};

/**
 * Simulated NVMe Flash device (see DeviceProfile for the model).
 *
 * Submissions are asynchronous: Submit() returns immediately and the
 * callback fires at the simulated completion time. Payload data, when
 * provided, lives in a sparse in-memory page store so that
 * applications (the LSM key-value store, the graph engine) can keep
 * real data on the simulated device. A write copies its bytes in at
 * submit; a read pins the pages it covers at submit (PagePins) instead
 * of copying them, and whoever wants the bytes copies them out once.
 */
class FlashDevice {
 public:
  FlashDevice(sim::Simulator& sim, DeviceProfile profile, uint64_t seed);
  ~FlashDevice();
  FlashDevice(const FlashDevice&) = delete;
  FlashDevice& operator=(const FlashDevice&) = delete;

  const DeviceProfile& profile() const { return profile_; }

  /**
   * Allocates a hardware queue pair. Returns nullptr when the device's
   * queue pairs are exhausted (the paper: "the number of queues is
   * limited, e.g. 64 in high-end devices").
   */
  QueuePair* AllocQueuePair();

  /** Releases a queue pair. Requires no outstanding commands. */
  void FreeQueuePair(QueuePair* qp);

  /**
   * Submits a command on the given queue pair. Returns false (and does
   * not invoke the callback) if the queue is full or the LBA range is
   * invalid -- mirroring a real driver's submission failure.
   */
  bool Submit(QueuePair* qp, const FlashCommand& cmd, FlashCallback cb);

  /** True if the device currently services reads in read-only mode. */
  bool InReadOnlyMode() const;

  /** Mean die utilization in [0,1] at `now` (approximate). */
  double DieUtilization() const;

  /** Number of 4KB flush chunks waiting for or occupying dies. */
  int64_t FlushBacklogChunks() const { return flush_backlog_chunks_; }

  /** Commands in flight across all hardware queue pairs. */
  int64_t QueueDepth() const;

  const FlashDeviceStats& stats() const { return stats_; }

  /**
   * Per-op service time histograms (submit -> completion, ns) of the
   * commands that completed without error, over the device lifetime.
   */
  const sim::Histogram& read_latency() const { return read_latency_; }
  const sim::Histogram& write_latency() const { return write_latency_; }

  /**
   * Attaches a fault-injection plan (null detaches). The device
   * consults kFlashReadError / kFlashWriteError / kFlashLatencySpike
   * per command (scoped to the die of the command's first page) and
   * kFlashBrownout as a device-wide service-time multiplier. The plan
   * draws from its own RNG stream, so an attached-but-idle plan leaves
   * the device's timing bit-identical.
   */
  void SetFaultPlan(sim::FaultPlan* plan) { fault_ = plan; }

 private:
  /** One submitted command, held in `inflight_` until it completes. */
  struct InFlight {
    FlashCommand cmd;
    FlashCallback cb;
    QueuePair* qp = nullptr;
    sim::TimeNs submit_time = 0;
    /** A pinning read's pages, from submit to completion. */
    PagePins pins;
  };

  void StartRead(uint32_t op);
  void AdmitWrite(uint32_t op);
  int BufferPagesFor(const FlashCommand& cmd) const;
  void Complete(uint32_t op, FlashStatus status);
  /** Occupies the die owning `page` and returns the completion time. */
  sim::TimeNs OccupyDie(uint64_t page, sim::TimeNs service);
  sim::TimeNs ReadServiceQuantum();
  /** Applies the brownout slowdown to a die service quantum. */
  sim::TimeNs FaultScaled(sim::TimeNs service) const;
  void CopyToStore(const FlashCommand& cmd);
  /** Pins the stored pages a read covers (the zero page if unwritten). */
  PagePins PinPages(const FlashCommand& cmd);
  /** The page of the store at `page_index` that a write may change:
   * created zeroed if absent, copied first if a read holds it. */
  StoredPage* WritablePage(uint64_t page_index);

  sim::Simulator& sim_;
  DeviceProfile profile_;
  sim::Rng rng_;
  sim::FaultPlan* fault_ = nullptr;

  std::vector<std::unique_ptr<QueuePair>> queue_pairs_;
  std::vector<sim::TimeNs> die_free_;  // per-die next-free time
  int next_flush_die_ = 0;

  int write_buffer_free_;
  /** Commands in flight, addressed by slot from their events. */
  sim::SlotPool<InFlight> inflight_;
  /** Writes waiting for write-buffer space (inflight_ slots). */
  sim::Ring<uint32_t> pending_writes_;
  int64_t flush_backlog_chunks_ = 0;

  sim::TimeNs last_write_time_ = -(1LL << 62);

  /** Written pages, in first-write order; the store holds one
   * reference to each and never drops a page while it lives. */
  std::vector<StoredPage*> pages_;
  /** Page index -> slot in pages_. */
  sim::FlatIndex page_slots_;
  /** What a read of a never-written page pins: all zeroes. */
  StoredPage* zero_page_;

  FlashDeviceStats stats_;
  sim::Histogram read_latency_;
  sim::Histogram write_latency_;
};

}  // namespace reflex::flash

#endif  // REFLEX_FLASH_FLASH_DEVICE_H_
