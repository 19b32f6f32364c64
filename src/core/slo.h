#ifndef REFLEX_CORE_SLO_H_
#define REFLEX_CORE_SLO_H_

#include <cstdint>

#include "sim/time.h"

namespace reflex::core {

/**
 * Tenant class (paper section 3.2): latency-critical tenants have
 * guaranteed tail-latency and IOPS allocations; best-effort tenants
 * opportunistically use whatever throughput is left.
 */
enum class TenantClass : uint8_t {
  kLatencyCritical = 0,
  kBestEffort = 1,
};

/**
 * A service-level objective, e.g. "50K IOPS with 200us p95 read tail
 * latency at an 80% read ratio" (the paper's example). Only meaningful
 * for latency-critical tenants; best-effort tenants leave it default.
 */
struct SloSpec {
  /** Guaranteed IOPS at the declared mix and request size. */
  uint32_t iops = 0;

  /** Fraction of requests that are reads, in [0, 1]. */
  double read_fraction = 1.0;

  /** Tail read latency bound. */
  sim::TimeNs latency = 0;

  /**
   * Percentile at which `latency` applies. Nothing reads it: admission
   * always checks `latency` against the calibrated p95 curve, so only
   * 0.95 is honoured. It stays because positional SloSpec initializers
   * (the fig5 and fault_recovery benches, the tenant_qos perfbench
   * workload and the determinism golden test) spell it out.
   */
  double percentile = 0.95;

  /** Declared request size used to weight the token reservation. */
  uint32_t request_bytes = 4096;
};

}  // namespace reflex::core

#endif  // REFLEX_CORE_SLO_H_
