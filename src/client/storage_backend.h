#ifndef REFLEX_CLIENT_STORAGE_BACKEND_H_
#define REFLEX_CLIENT_STORAGE_BACKEND_H_

#include <cstdint>

#include "client/io_result.h"
#include "client/io_session.h"
#include "core/protocol.h"
#include "sim/task.h"

namespace reflex::client {

/**
 * Byte-addressed storage interface used by the applications (FIO, the
 * graph engine, the LSM key-value store). Implemented by the legacy
 * BlockDevice driver (remote ReFlex) and by SessionStorageBackend over
 * any IoSession (a baseline, a ReFlex tenant or a cluster), so each
 * application runs unmodified on every system under comparison --
 * exactly how the paper's Figure 7 swaps block devices under unchanged
 * binaries.
 */
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /** Reads `bytes` at `offset` (512-aligned when data is non-null). */
  virtual sim::Future<IoResult> ReadBytes(uint64_t offset, uint32_t bytes,
                                          uint8_t* data) = 0;

  /** Writes; see ReadBytes(). */
  virtual sim::Future<IoResult> WriteBytes(uint64_t offset, uint32_t bytes,
                                           const uint8_t* data) = 0;

  /** Usable capacity in bytes. */
  virtual uint64_t CapacityBytes() const = 0;

  virtual const char* name() const = 0;
};

/**
 * Byte-addressed backend over any IoSession. The session supplies its
 * own capacity, so the applications (FIO, graph engine, LSM store)
 * run identically on a local baseline, a single server or a sharded
 * cluster. A byte range maps to the sectors that cover it.
 */
class SessionStorageBackend : public StorageBackend {
 public:
  explicit SessionStorageBackend(IoSession& session) : session_(session) {}

  sim::Future<IoResult> ReadBytes(uint64_t offset, uint32_t bytes,
                                  uint8_t* data) override {
    return session_.Read(offset / core::kSectorBytes,
                         SectorsFor(offset, bytes), data);
  }

  sim::Future<IoResult> WriteBytes(uint64_t offset, uint32_t bytes,
                                   const uint8_t* data) override {
    return session_.Write(offset / core::kSectorBytes,
                          SectorsFor(offset, bytes),
                          const_cast<uint8_t*>(data));
  }

  uint64_t CapacityBytes() const override {
    return session_.capacity_sectors() *
           static_cast<uint64_t>(session_.sector_bytes());
  }

  const char* name() const override { return "IoSession"; }

 private:
  static uint32_t SectorsFor(uint64_t offset, uint32_t bytes) {
    const uint64_t first = offset / core::kSectorBytes;
    const uint64_t end =
        (offset + bytes + core::kSectorBytes - 1) / core::kSectorBytes;
    return static_cast<uint32_t>(end - first);
  }

  IoSession& session_;
};

}  // namespace reflex::client

#endif  // REFLEX_CLIENT_STORAGE_BACKEND_H_
