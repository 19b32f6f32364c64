#ifndef REFLEX_CLIENT_IO_SESSION_H_
#define REFLEX_CLIENT_IO_SESSION_H_

#include <cstdint>

#include "client/io_result.h"
#include "sim/task.h"

namespace reflex::client {

/**
 * A tenant's block I/O endpoint, independent of how many servers stand
 * behind it. TenantSession (one ReFlex server) and
 * cluster::ClusterSession (sharded, optionally replicated cluster)
 * both implement it, so load generators, the app models and the
 * benches are written once against IoSession& and run unchanged on
 * either path.
 *
 * Lanes generalize connections: a single-server session maps lane k to
 * TCP connection k of its client's pool; a cluster session maps it to
 * connection k of every per-shard pool. -1 lets the session pick
 * (round-robin). Callers that shard work across lanes (closed-loop
 * workers) use num_lanes() to stay in range.
 */
class IoSession {
 public:
  virtual ~IoSession() = default;

  /**
   * Reads `sectors` 512B sectors at logical `lba`; `data` (optional)
   * receives the payload. The future resolves when the application
   * would observe completion (all stack costs included).
   *
   * Buffer contract (Read and Write): the session touches `data` only
   * between the call and the resolution of the returned future. Once
   * it resolves, whatever the status, the caller may reuse or free the
   * buffer; a request still in flight (a timed-out read's duplicate, an
   * unknown-outcome write) never reads or writes it again. `data` holds
   * the read payload only when the status is kOk.
   */
  virtual sim::Future<IoResult> Read(uint64_t lba, uint32_t sectors,
                                     uint8_t* data = nullptr,
                                     int lane = -1) = 0;

  /** Writes; see Read(). */
  virtual sim::Future<IoResult> Write(uint64_t lba, uint32_t sectors,
                                      uint8_t* data = nullptr,
                                      int lane = -1) = 0;

  /**
   * The tenant handle this session issues I/O under. For a cluster
   * session, the handle on the first shard (representative: per-shard
   * handles are assigned independently).
   */
  virtual uint32_t tenant_handle() const = 0;

  /** Independent request lanes (see class comment). Always >= 1. */
  virtual int num_lanes() const = 0;

  /** Logical capacity addressable through this session, in sectors. */
  virtual uint64_t capacity_sectors() const = 0;

  /** Logical sector size in bytes (the ReFlex wire sector). */
  virtual uint32_t sector_bytes() const = 0;

  /** Device page granularity in sectors (for aligned access). */
  virtual uint32_t sectors_per_page() const = 0;
};

}  // namespace reflex::client

#endif  // REFLEX_CLIENT_IO_SESSION_H_
