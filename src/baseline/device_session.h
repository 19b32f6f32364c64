#ifndef REFLEX_BASELINE_DEVICE_SESSION_H_
#define REFLEX_BASELINE_DEVICE_SESSION_H_

#include <cstdint>
#include <utility>

#include "client/io_result.h"
#include "client/io_session.h"
#include "flash/flash_device.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace reflex::baseline {

/**
 * The IoSession plumbing the baselines share: a baseline drives one
 * FlashDevice directly (no ReFlex server, so no tenant: the handle is
 * 0) through a fixed set of lanes -- SPDK threads, blk-mq contexts or
 * TCP connections. Geometry comes from the device profile, exactly as
 * TenantSession reports it. Lane -1 round-robins; subclasses model one
 * I/O on a given lane in DoIo().
 */
class DeviceSession : public client::IoSession {
 public:
  sim::Future<client::IoResult> Read(uint64_t lba, uint32_t sectors,
                                     uint8_t* data = nullptr,
                                     int lane = -1) override {
    return Issue(/*is_read=*/true, lba, sectors, data, lane);
  }

  sim::Future<client::IoResult> Write(uint64_t lba, uint32_t sectors,
                                      uint8_t* data = nullptr,
                                      int lane = -1) override {
    return Issue(/*is_read=*/false, lba, sectors, data, lane);
  }

  uint32_t tenant_handle() const override { return 0; }
  int num_lanes() const override { return num_lanes_; }
  uint64_t capacity_sectors() const override {
    return device_.profile().capacity_sectors;
  }
  uint32_t sector_bytes() const override {
    return device_.profile().sector_bytes;
  }
  uint32_t sectors_per_page() const override {
    return device_.profile().SectorsPerPage();
  }

 protected:
  DeviceSession(sim::Simulator& sim, flash::FlashDevice& device,
                int num_lanes)
      : sim_(sim), device_(device), num_lanes_(num_lanes) {
    REFLEX_CHECK(num_lanes_ >= 1);
  }

  /**
   * The device command for one I/O: a write carries the caller's
   * bytes, a read into `data` pins the pages it covers (a null `data`
   * is timing-only either way).
   */
  static flash::FlashCommand Command(bool is_read, uint64_t lba,
                                     uint32_t sectors, uint8_t* data) {
    flash::FlashCommand cmd;
    cmd.op = is_read ? flash::FlashOp::kRead : flash::FlashOp::kWrite;
    cmd.lba = lba;
    cmd.sectors = sectors;
    cmd.data = is_read ? nullptr : data;
    cmd.pin = is_read && data != nullptr;
    return cmd;
  }

  /**
   * Copies a successful read's pinned bytes into the caller's buffer
   * at device completion; a failed read leaves it untouched.
   */
  static void CopyOut(const flash::FlashCompletion& c, uint8_t* data) {
    if (c.status == flash::FlashStatus::kOk && c.pins) c.pins.CopyTo(data);
  }

  /** Models one I/O on `lane`; resolves `promise` on completion. */
  virtual sim::Task DoIo(int lane, bool is_read, uint64_t lba,
                         uint32_t sectors, uint8_t* data,
                         sim::Promise<client::IoResult> promise) = 0;

  sim::Simulator& sim_;
  flash::FlashDevice& device_;

 private:
  sim::Future<client::IoResult> Issue(bool is_read, uint64_t lba,
                                      uint32_t sectors, uint8_t* data,
                                      int lane) {
    REFLEX_CHECK(lane >= -1 && lane < num_lanes_);
    if (lane < 0) {
      lane = next_lane_;
      next_lane_ = (next_lane_ + 1) % num_lanes_;
    }
    sim::Promise<client::IoResult> promise(sim_);
    auto future = promise.GetFuture();
    DoIo(lane, is_read, lba, sectors, data, std::move(promise));
    return future;
  }

  int num_lanes_;
  int next_lane_ = 0;
};

}  // namespace reflex::baseline

#endif  // REFLEX_BASELINE_DEVICE_SESSION_H_
