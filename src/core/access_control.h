#ifndef REFLEX_CORE_ACCESS_CONTROL_H_
#define REFLEX_CORE_ACCESS_CONTROL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/protocol.h"

namespace reflex::core {

/**
 * An NVMe namespace: a host-side logical-block range. ReFlex checks
 * tenant permissions at namespace granularity (paper section 4.1,
 * "Security model").
 */
struct BlockNamespace {
  uint32_t id = 0;
  uint64_t start_lba = 0;
  uint64_t sectors = 0;

  /** True when [lba, lba + count) lies inside the namespace. Written
   * without forming lba + count, which wraps for an LBA near 2^64. */
  bool Contains(uint64_t lba, uint32_t count) const {
    return lba >= start_lba && count <= sectors &&
           lba - start_lba <= sectors - count;
  }
};

/**
 * Access-control lists at the granularity of tenants and connections:
 * (1) may a client machine open a connection to a tenant, and (2) does
 * a tenant have read/write permission on a namespace.
 *
 * By default the ACL is permissive (open lab deployment); calling
 * SetStrict(true) denies everything that has not been granted.
 */
class AccessControl {
 public:
  void SetStrict(bool strict) { strict_ = strict; }
  bool strict() const { return strict_; }

  /** Defines a namespace over [start_lba, start_lba + sectors). */
  void AddNamespace(uint32_t ns_id, uint64_t start_lba, uint64_t sectors) {
    namespaces_[ns_id] = BlockNamespace{ns_id, start_lba, sectors};
  }

  /** Grants a tenant read and/or write rights on a namespace. */
  void GrantTenant(uint32_t tenant_handle, uint32_t ns_id, bool read,
                   bool write) {
    auto& g = tenant_grants_[tenant_handle];
    if (read) g.read_ns.insert(ns_id);
    if (write) g.write_ns.insert(ns_id);
  }

  /** Allows a client machine to open connections to a tenant. */
  void AllowClient(const std::string& client_name, uint32_t tenant_handle) {
    client_grants_[client_name].insert(tenant_handle);
  }

  /** Connection-open check. */
  bool CheckConnect(const std::string& client_name,
                    uint32_t tenant_handle) const {
    if (!strict_) return true;
    auto it = client_grants_.find(client_name);
    return it != client_grants_.end() &&
           it->second.count(tenant_handle) > 0;
  }

  /**
   * I/O check: the request must fall inside a namespace on which the
   * tenant holds the matching permission.
   */
  ReqStatus CheckIo(uint32_t tenant_handle, ReqType type, uint64_t lba,
                    uint32_t sectors) const {
    if (!strict_) return ReqStatus::kOk;
    auto it = tenant_grants_.find(tenant_handle);
    if (it == tenant_grants_.end()) return ReqStatus::kAccessDenied;
    const auto& allowed = (type == ReqType::kRead) ? it->second.read_ns
                                                   : it->second.write_ns;
    // Probes namespaces in ascending id order (std::set): the check
    // result is order-independent, but the probe sequence must not
    // depend on hash layout for the simulation to stay bit-identical.
    for (uint32_t ns_id : allowed) {
      auto ns = namespaces_.find(ns_id);
      if (ns != namespaces_.end() && ns->second.Contains(lba, sectors)) {
        return ReqStatus::kOk;
      }
    }
    return ReqStatus::kAccessDenied;
  }

 private:
  struct TenantGrants {
    std::set<uint32_t> read_ns;
    std::set<uint32_t> write_ns;
  };

  bool strict_ = false;
  std::map<uint32_t, BlockNamespace> namespaces_;
  std::map<uint32_t, TenantGrants> tenant_grants_;
  std::map<std::string, std::set<uint32_t>> client_grants_;
};

}  // namespace reflex::core

#endif  // REFLEX_CORE_ACCESS_CONTROL_H_
