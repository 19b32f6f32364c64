#include "flash/flash_device.h"

#include <algorithm>
#include <cstring>

#include "sim/logging.h"

namespace reflex::flash {

FlashDevice::FlashDevice(sim::Simulator& sim, DeviceProfile profile,
                         uint64_t seed)
    : sim_(sim),
      profile_(std::move(profile)),
      rng_(seed, "flash_device"),
      write_buffer_free_(profile_.write_buffer_slots),
      zero_page_(new StoredPage()) {  // value-initialized: zeroes
  REFLEX_CHECK(profile_.num_dies > 0);
  REFLEX_CHECK(profile_.write_cost >= 1.0);
  REFLEX_CHECK(profile_.page_bytes == kStoredPageBytes);
  REFLEX_CHECK(profile_.page_bytes % profile_.sector_bytes == 0);
  die_free_.assign(profile_.num_dies, 0);
}

FlashDevice::~FlashDevice() {
  // Pins still held elsewhere (a response in flight) keep their pages.
  for (StoredPage* page : pages_) Unref(page);
  Unref(zero_page_);
}

QueuePair* FlashDevice::AllocQueuePair() {
  // Reuse a freed slot first so repeated alloc/free cycles do not
  // exhaust the hardware limit.
  for (size_t i = 0; i < queue_pairs_.size(); ++i) {
    if (queue_pairs_[i] == nullptr) {
      queue_pairs_[i].reset(
          new QueuePair(this, static_cast<int>(i), profile_.hw_queue_depth));
      return queue_pairs_[i].get();
    }
  }
  if (static_cast<int>(queue_pairs_.size()) >= profile_.num_hw_queues) {
    return nullptr;
  }
  int id = static_cast<int>(queue_pairs_.size());
  queue_pairs_.emplace_back(new QueuePair(this, id, profile_.hw_queue_depth));
  return queue_pairs_.back().get();
}

void FlashDevice::FreeQueuePair(QueuePair* qp) {
  REFLEX_CHECK(qp != nullptr && qp->dev_ == this);
  REFLEX_CHECK(qp->outstanding_ == 0);
  // Queue pair ids stay stable; just mark the slot reusable by reset.
  for (auto& owned : queue_pairs_) {
    if (owned.get() == qp) {
      owned.reset();
      return;
    }
  }
  REFLEX_PANIC("queue pair not owned by this device");
}

bool FlashDevice::Submit(QueuePair* qp, const FlashCommand& cmd,
                         FlashCallback cb) {
  REFLEX_CHECK(qp != nullptr && qp->dev_ == this);
  if (qp->outstanding_ >= qp->depth_) {
    ++stats_.queue_full_rejections;
    return false;
  }
  // Overflow-safe: lba + sectors wraps for an LBA near 2^64.
  if (cmd.sectors == 0 || cmd.sectors > profile_.capacity_sectors ||
      cmd.lba > profile_.capacity_sectors - cmd.sectors) {
    return false;
  }
  REFLEX_CHECK(cmd.op == FlashOp::kWrite ? !cmd.pin : cmd.data == nullptr);
  ++qp->outstanding_;

  const uint32_t op =
      inflight_.Add(InFlight{cmd, std::move(cb), qp, sim_.Now(), {}});

  if (cmd.op == FlashOp::kRead) {
    if (cmd.pin) inflight_[op].pins = PinPages(cmd);
    StartRead(op);
  } else {
    if (fault_ != nullptr &&
        fault_->Roll(sim::FaultKind::kFlashWriteError,
                     (cmd.lba / profile_.SectorsPerPage()) %
                         die_free_.size())) {
      // Media error during programming: the data never reaches the
      // store; fail at the normal buffer-ack latency.
      ++stats_.write_errors;
      sim_.ScheduleAfter(
          profile_.write_buffer_latency + profile_.fixed_op_overhead / 4,
          [this, op] { Complete(op, FlashStatus::kMediaError); });
      return true;
    }
    if (cmd.data != nullptr) CopyToStore(cmd);
    last_write_time_ = sim_.Now();
    const int pages = BufferPagesFor(cmd);
    if (write_buffer_free_ >= pages && pending_writes_.empty()) {
      write_buffer_free_ -= pages;
      AdmitWrite(op);
    } else {
      pending_writes_.push_back(op);
    }
  }
  return true;
}

int FlashDevice::BufferPagesFor(const FlashCommand& cmd) const {
  // Buffer slots are 4KB pages; a command larger than the whole buffer
  // is admitted once the buffer is completely free.
  const uint32_t spp = profile_.SectorsPerPage();
  const uint64_t first_page = cmd.lba / spp;
  const uint64_t last_page = (cmd.lba + cmd.sectors - 1) / spp;
  const auto pages = static_cast<int>(last_page - first_page + 1);
  return std::min(pages, profile_.write_buffer_slots);
}

sim::TimeNs FlashDevice::ReadServiceQuantum() {
  const sim::TimeNs base = InReadOnlyMode() ? profile_.read_service_readonly
                                            : profile_.read_service_mixed;
  return static_cast<sim::TimeNs>(rng_.NextLognormal(
      static_cast<double>(base), profile_.service_sigma));
}

sim::TimeNs FlashDevice::FaultScaled(sim::TimeNs service) const {
  if (fault_ != nullptr &&
      fault_->WindowActive(sim::FaultKind::kFlashBrownout)) {
    return static_cast<sim::TimeNs>(static_cast<double>(service) *
                                    fault_->brownout_slowdown());
  }
  return service;
}

sim::TimeNs FlashDevice::OccupyDie(uint64_t die, sim::TimeNs service) {
  const int d = static_cast<int>(die % die_free_.size());
  const sim::TimeNs start = std::max(sim_.Now(), die_free_[d]);
  const sim::TimeNs done = start + service;
  die_free_[d] = done;
  return done;
}

void FlashDevice::StartRead(uint32_t op) {
  const FlashCommand& cmd = inflight_[op].cmd;
  const uint32_t spp = profile_.SectorsPerPage();
  const uint64_t first_page = cmd.lba / spp;
  const uint64_t last_page = (cmd.lba + cmd.sectors - 1) / spp;
  sim::TimeNs done = sim_.Now();
  for (uint64_t page = first_page; page <= last_page; ++page) {
    done = std::max(done, OccupyDie(page, FaultScaled(ReadServiceQuantum())));
  }
  done += profile_.read_pipeline_latency + profile_.fixed_op_overhead;
  FlashStatus status = FlashStatus::kOk;
  if (fault_ != nullptr) {
    const uint64_t die = first_page % die_free_.size();
    if (fault_->Roll(sim::FaultKind::kFlashReadError, die)) {
      // Uncorrectable read: the dies were still occupied (the
      // controller retried internally), but the data is lost.
      status = FlashStatus::kMediaError;
      ++stats_.read_errors;
    }
    if (fault_->Roll(sim::FaultKind::kFlashLatencySpike, die)) {
      done += fault_->latency_spike();
      ++stats_.latency_spikes;
    }
  }
  sim_.ScheduleAt(done, [this, op, status] { Complete(op, status); });
}

void FlashDevice::AdmitWrite(uint32_t op) {
  // Acknowledge once the data is in the DRAM buffer.
  const sim::TimeNs ack_latency =
      static_cast<sim::TimeNs>(rng_.NextLognormal(
          static_cast<double>(profile_.write_buffer_latency),
          profile_.write_buffer_sigma)) +
      profile_.fixed_op_overhead / 4;
  sim_.ScheduleAfter(ack_latency,
                     [this, op] { Complete(op, FlashStatus::kOk); });

  // Background flush: pages * write_cost die quanta, spread round-robin
  // over dies. The buffer slot frees when the last quantum finishes.
  const FlashCommand& cmd = inflight_[op].cmd;
  const uint32_t spp = profile_.SectorsPerPage();
  const uint64_t first_page = cmd.lba / spp;
  const uint64_t last_page = (cmd.lba + cmd.sectors - 1) / spp;
  const double quanta_needed =
      static_cast<double>(last_page - first_page + 1) * profile_.write_cost;
  const int whole = static_cast<int>(quanta_needed);
  const double frac = quanta_needed - whole;

  sim::TimeNs flush_done = sim_.Now();
  int chunks = 0;
  for (int i = 0; i < whole; ++i) {
    sim::TimeNs q = static_cast<sim::TimeNs>(
        rng_.NextLognormal(static_cast<double>(profile_.read_service_mixed),
                           profile_.service_sigma));
    const int die = next_flush_die_++;
    if (next_flush_die_ >= profile_.num_dies) next_flush_die_ = 0;
    if (rng_.NextBernoulli(profile_.gc_prob_per_flush_chunk)) {
      q += profile_.gc_pause;
      ++stats_.gc_stalls;
    }
    flush_done = std::max(flush_done, OccupyDie(die, FaultScaled(q)));
    ++chunks;
  }
  if (frac > 1e-9) {
    const sim::TimeNs q = static_cast<sim::TimeNs>(
        frac * static_cast<double>(profile_.read_service_mixed));
    const int die = next_flush_die_++;
    if (next_flush_die_ >= profile_.num_dies) next_flush_die_ = 0;
    flush_done = std::max(flush_done, OccupyDie(die, FaultScaled(q)));
    ++chunks;
  }
  flush_backlog_chunks_ += chunks;

  const int pages_held = BufferPagesFor(cmd);
  sim_.ScheduleAt(flush_done, [this, chunks, pages_held] {
    flush_backlog_chunks_ -= chunks;
    write_buffer_free_ += pages_held;
    while (!pending_writes_.empty()) {
      const uint32_t next = pending_writes_.front();
      const int needed = BufferPagesFor(inflight_[next].cmd);
      if (write_buffer_free_ < needed) break;
      write_buffer_free_ -= needed;
      pending_writes_.pop_front();
      AdmitWrite(next);
    }
  });
}

void FlashDevice::Complete(uint32_t slot, FlashStatus status) {
  // Free the slot before the callback runs: the callback may submit
  // again, and a resubmission may reuse it.
  InFlight op = inflight_.Take(slot);
  --op.qp->outstanding_;
  FlashCompletion completion;
  completion.status = status;
  completion.cookie = op.cmd.cookie;
  completion.submit_time = op.submit_time;
  completion.complete_time = sim_.Now();
  completion.pins = std::move(op.pins);
  // Failed commands are accounted in read_errors/write_errors at the
  // injection site; success counters and latency distributions track
  // only served I/O.
  if (status == FlashStatus::kOk) {
    if (op.cmd.op == FlashOp::kRead) {
      ++stats_.reads_completed;
      stats_.read_sectors += op.cmd.sectors;
      read_latency_.Record(completion.Latency());
    } else {
      ++stats_.writes_completed;
      stats_.write_sectors += op.cmd.sectors;
      write_latency_.Record(completion.Latency());
    }
  }
  if (op.cb) op.cb(completion);
}

int64_t FlashDevice::QueueDepth() const {
  int64_t depth = 0;
  for (const auto& qp : queue_pairs_) {
    if (qp != nullptr) depth += qp->outstanding_;
  }
  return depth;
}

bool FlashDevice::InReadOnlyMode() const {
  return flush_backlog_chunks_ == 0 &&
         sim_.Now() - last_write_time_ > profile_.readonly_window;
}

double FlashDevice::DieUtilization() const {
  const sim::TimeNs now = sim_.Now();
  int busy = 0;
  for (sim::TimeNs t : die_free_) {
    if (t > now) ++busy;
  }
  return static_cast<double>(busy) / static_cast<double>(die_free_.size());
}

StoredPage* FlashDevice::WritablePage(uint64_t page_index) {
  const uint32_t slot = page_slots_.Find(page_index);
  if (slot == sim::FlatIndex::kNone) {
    page_slots_.Insert(page_index, static_cast<uint32_t>(pages_.size()));
    pages_.push_back(new StoredPage());  // value-initialized: zeroes
    return pages_.back();
  }
  StoredPage* page = pages_[slot];
  if (page->refs > 1) {
    // Copy-on-write: reads that pinned this page keep its old bytes.
    auto* copy = new StoredPage;
    std::memcpy(copy->bytes, page->bytes, kStoredPageBytes);
    Unref(page);
    pages_[slot] = copy;
    return copy;
  }
  return page;
}

void FlashDevice::CopyToStore(const FlashCommand& cmd) {
  const uint32_t sector = profile_.sector_bytes;
  uint64_t byte_off = cmd.lba * sector;
  uint64_t remaining = static_cast<uint64_t>(cmd.sectors) * sector;
  const uint8_t* src = cmd.data;
  while (remaining > 0) {
    const uint64_t page = byte_off / kStoredPageBytes;
    const uint64_t in_page = byte_off % kStoredPageBytes;
    const uint64_t n =
        std::min<uint64_t>(remaining, kStoredPageBytes - in_page);
    std::memcpy(WritablePage(page)->bytes + in_page, src, n);
    src += n;
    byte_off += n;
    remaining -= n;
  }
}

PagePins FlashDevice::PinPages(const FlashCommand& cmd) {
  const uint64_t first_byte = cmd.lba * profile_.sector_bytes;
  const uint64_t bytes =
      static_cast<uint64_t>(cmd.sectors) * profile_.sector_bytes;
  const uint64_t first_page = first_byte / kStoredPageBytes;
  const uint64_t end_page =
      (first_byte + bytes + kStoredPageBytes - 1) / kStoredPageBytes;
  PagePins pins(static_cast<uint32_t>(end_page - first_page),
                static_cast<uint32_t>(first_byte % kStoredPageBytes),
                static_cast<uint32_t>(bytes));
  StoredPage** pinned = pins.pages();
  for (uint64_t page = first_page; page < end_page; ++page) {
    const uint32_t slot = page_slots_.Find(page);
    StoredPage* stored =
        slot == sim::FlatIndex::kNone ? zero_page_ : pages_[slot];
    ++stored->refs;
    *pinned++ = stored;
  }
  return pins;
}

}  // namespace reflex::flash
