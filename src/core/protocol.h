#ifndef REFLEX_CORE_PROTOCOL_H_
#define REFLEX_CORE_PROTOCOL_H_

#include <cstdint>
#include <memory>

#include "core/slo.h"
#include "flash/page_pins.h"
#include "obs/trace.h"

namespace reflex::core {

/**
 * Request types of the ReFlex wire protocol (paper Table 1). The
 * simulation passes parsed request structs around instead of raw
 * bytes, but message sizes on the wire follow these constants so
 * network serialization time and bandwidth are accounted exactly.
 */
enum class ReqType : uint8_t {
  kRegister = 0,    // register a tenant with an SLO
  kUnregister = 1,  // unregister a tenant
  kRead = 2,        // read logical blocks
  kWrite = 3,       // write logical blocks
  /**
   * Ordering barrier (the extension sketched in paper section 4.1):
   * every I/O of the tenant enqueued before the barrier must complete
   * on the device before any I/O enqueued after it is submitted. The
   * barrier's own response is sent once the preceding I/Os finished.
   */
  kBarrier = 4,
};

/** Response / event-condition types (paper Table 1). */
enum class RespType : uint8_t {
  kRegistered = 0,
  kUnregistered = 1,
  kResponse = 2,     // NVMe read completed (with data)
  kWritten = 3,      // NVMe write completed
  kBarrierDone = 4,  // all earlier I/Os of the tenant completed
};

/** Completion status codes carried in responses. */
enum class ReqStatus : uint8_t {
  kOk = 0,
  kAccessDenied = 1,
  kNoSuchTenant = 2,
  kOutOfResources = 3,  // registration rejected (inadmissible SLO)
  kInvalidRange = 4,
  kDeviceError = 5,
  /**
   * Synthesized locally by the client when no response arrived within
   * its request timeout (never carried on the wire). Reads have no
   * side effects, so a timed-out read definitely did not take effect
   * from the application's point of view.
   */
  kTimedOut = 6,
  /**
   * Synthesized locally by the client for a write or barrier whose
   * response never arrived (never carried on the wire). Unlike
   * kTimedOut, the request MAY have executed on the server -- the
   * library cannot know, must not retransmit (double-apply), and must
   * not fabricate success. Callers decide: re-read to discover the
   * outcome, or re-issue if their update is idempotent.
   */
  kUnknownOutcome = 7,
  /**
   * The shard no longer owns the requested sector range: the range was
   * migrated away and the client's shard map is older than the cutover
   * epoch. Retryable -- the client refreshes its map copy and reissues
   * against the new owner. Carried on the wire (it is a server
   * decision), but synthesized only by migration range gates.
   */
  kWrongShard = 8,
};

/**
 * Sentinel map epoch meaning "not stamped": requests from single-server
 * clients (no shard map) bypass migration epoch checks entirely.
 */
inline constexpr uint64_t kMapEpochBypass = ~uint64_t{0};

/** Logical sector size used by the ReFlex block protocol. */
inline constexpr uint32_t kSectorBytes = 512;

/**
 * Fixed per-request header size on the wire. Together with the TCP/IP
 * framing this gives the paper's "38 bytes per 4KB request" overhead:
 * 24 bytes of ReFlex header plus a share of the TCP segment framing.
 */
inline constexpr uint32_t kRequestHeaderBytes = 24;
inline constexpr uint32_t kResponseHeaderBytes = 24;
inline constexpr uint32_t kRegisterMsgBytes = 64;

/**
 * Payload bytes a write request carries and owns: the bytes the client
 * sent. Null for timing-only load and for every other message. A read
 * carries no buffer either way; its response carries the device's
 * pinned pages (ResponseMsg::pins).
 */
using Payload = std::shared_ptr<uint8_t[]>;

/**
 * A parsed ReFlex request as carried through the simulation. For
 * kRead/kWrite, `handle` identifies the tenant.
 */
struct RequestMsg {
  ReqType type = ReqType::kRead;
  uint32_t handle = 0;
  uint64_t lba = 0;
  uint32_t sectors = 0;
  uint64_t cookie = 0;
  /** kWrite: the bytes to write (see Payload). */
  Payload data;
  /**
   * kRead: the client wants the bytes, so the device pins the pages
   * the read covers and the response carries them. False for
   * timing-only load.
   */
  bool wants_data = false;

  /**
   * Shard-map epoch the client held when it routed this request. Range
   * gates on a migrated-away range reject requests stamped with an
   * epoch older than the cutover (kWrongShard) so stale routing can
   * never read or write pre-migration sectors. Like queue_depth_hint,
   * it rides in reserved bytes of the fixed 24-byte request header, so
   * it adds no wire bytes and cannot perturb network timing. Defaults
   * to the bypass sentinel: single-server clients are unaffected.
   */
  uint64_t map_epoch = kMapEpochBypass;

  // kRegister payload.
  SloSpec slo;
  TenantClass tenant_class = TenantClass::kBestEffort;

  /**
   * Latency-breakdown trace span for sampled requests (null for the
   * untraced fast path). Rides along with the parsed message through
   * the dataplane; each layer timestamps its stage. Models the
   * request-id correlation a real deployment would do out of band, so
   * it contributes no wire bytes.
   */
  std::shared_ptr<obs::TraceSpan> trace;

  /** Bytes this message occupies on the wire (excl. TCP framing). */
  uint32_t WireBytes(uint32_t sector_bytes) const {
    switch (type) {
      case ReqType::kRegister:
      case ReqType::kUnregister:
        return kRegisterMsgBytes;
      case ReqType::kRead:
      case ReqType::kBarrier:
        return kRequestHeaderBytes;
      case ReqType::kWrite:
        return kRequestHeaderBytes + sectors * sector_bytes;
    }
    return kRequestHeaderBytes;
  }
};

/** A parsed ReFlex response. */
struct ResponseMsg {
  RespType type = RespType::kResponse;
  ReqStatus status = ReqStatus::kOk;
  uint32_t handle = 0;
  uint64_t cookie = 0;
  uint32_t sectors = 0;
  /**
   * kResponse payload: the pages the read pinned at the device
   * (flash::PagePins), copied out once by the client. Empty for a
   * failed or timing-only read.
   */
  flash::PagePins pins;

  /**
   * Queue-depth hint piggybacked by the serving dataplane thread on
   * every response (RackSched-style): requests queued or in flight on
   * that thread at transmit time. Clients steering reads across
   * replicas use it for power-of-d choices. Rides in reserved bytes of
   * the 24-byte response header, so it adds no wire bytes and cannot
   * perturb network timing.
   */
  uint32_t queue_depth_hint = 0;

  uint32_t WireBytes(uint32_t sector_bytes) const {
    switch (type) {
      case RespType::kRegistered:
      case RespType::kUnregistered:
        return kRegisterMsgBytes;
      case RespType::kResponse:
        return kResponseHeaderBytes +
               (status == ReqStatus::kOk ? sectors * sector_bytes : 0);
      case RespType::kWritten:
      case RespType::kBarrierDone:
        return kResponseHeaderBytes;
    }
    return kResponseHeaderBytes;
  }
};

}  // namespace reflex::core

#endif  // REFLEX_CORE_PROTOCOL_H_
