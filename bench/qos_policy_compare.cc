// Compares the three QoS enforcement policies on the Figure 5
// scenario-1 workload: 2 latency-critical tenants at their full
// reservations plus 2 best-effort tenants at closed-loop QD32.
//
//   token_bucket  ReFlex Algorithm 1 (the paper's scheduler)
//   qwin          per-window LC quotas from observed backlog
//   adaptive_be   Algorithm 1 + BE inflight-bytes cap from the
//                 measured service rate
//
// For each policy: per-LC-tenant achieved IOPS, p95/p99.9 read
// latency and SLO violations (reads above the latency SLO), and
// per-BE-tenant goodput. Emits BENCH_qospolicy.json for CI trend
// tracking.
//
// Expected: all three policies keep the LC tenants within SLO; they
// differ in BE goodput and LC tail (adaptive_be trades a little BE
// goodput for a shallower device queue; qwin admits LC bursts in
// window-sized quanta).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/qos_policy.h"

namespace reflex {
namespace {

struct TenantResult {
  std::string name;
  bool lc = false;
  double iops = 0.0;
  double p95_read_us = 0.0;
  double p999_read_us = 0.0;
  int64_t reads = 0;
  int64_t slo_violations = 0;
  double goodput_mbps = 0.0;  // BE only: achieved bytes through
};

struct PolicyResult {
  std::string policy;
  std::vector<TenantResult> tenants;
  double be_goodput_mbps = 0.0;
};

constexpr int64_t kRequestBytes = 4096;

PolicyResult RunPolicy(core::QosPolicyKind kind) {
  core::ServerOptions options = bench::QosServerOptions();
  options.qos.enforce = true;
  options.qos.policy = kind;
  bench::BenchWorld world(options);

  std::vector<bench::QosTenant> tenants =
      bench::AddQosTenants(world, /*b_offered_iops=*/70000);
  bench::RunQosTenants(world, tenants);

  PolicyResult result;
  result.policy = core::QosPolicyKindName(kind);
  for (const bench::QosTenant& s : tenants) {
    TenantResult t;
    t.name = s.name;
    t.lc = s.lc();
    t.iops = s.generator->AchievedIops();
    const sim::Histogram& reads = s.generator->read_latency();
    t.reads = reads.Count();
    t.p95_read_us = reads.Percentile(0.95) / 1e3;
    t.p999_read_us = reads.Percentile(0.999) / 1e3;
    if (t.lc) {
      t.slo_violations = reads.CountAbove(s.slo.latency);
    } else {
      t.goodput_mbps = t.iops * kRequestBytes / 1e6;
      result.be_goodput_mbps += t.goodput_mbps;
    }
    result.tenants.push_back(std::move(t));
  }
  return result;
}

void PrintPolicy(const PolicyResult& r) {
  std::printf("Policy %s:\n", r.policy.c_str());
  std::printf("  %-14s %10s %12s %13s %14s %14s\n", "tenant", "iops",
              "p95_read_us", "p999_read_us", "slo_violations",
              "goodput_MBps");
  for (const TenantResult& t : r.tenants) {
    std::printf("  %-14s %10.0f %12.1f %13.1f ", t.name.c_str(), t.iops,
                t.p95_read_us, t.p999_read_us);
    if (t.lc) {
      std::printf("%7lld/%-6lld %14s\n",
                  static_cast<long long>(t.slo_violations),
                  static_cast<long long>(t.reads), "-");
    } else {
      std::printf("%14s %14.1f\n", "-", t.goodput_mbps);
    }
  }
  std::printf("  BE goodput total: %.1f MB/s\n\n", r.be_goodput_mbps);
}

std::string PolicyJson(const PolicyResult& r) {
  char buf[256];
  std::string doc = "{\"tenants\":[";
  for (size_t i = 0; i < r.tenants.size(); ++i) {
    const TenantResult& t = r.tenants[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"class\":\"%s\",\"iops\":%.0f,"
                  "\"p95_read_us\":%.1f,\"p999_read_us\":%.1f",
                  i > 0 ? "," : "", t.name.c_str(), t.lc ? "LC" : "BE",
                  t.iops, t.p95_read_us, t.p999_read_us);
    doc += buf;
    if (t.lc) {
      std::snprintf(buf, sizeof buf,
                    ",\"slo_violations\":%lld,\"reads\":%lld}",
                    static_cast<long long>(t.slo_violations),
                    static_cast<long long>(t.reads));
    } else {
      std::snprintf(buf, sizeof buf, ",\"goodput_mbps\":%.1f}",
                    t.goodput_mbps);
    }
    doc += buf;
  }
  std::snprintf(buf, sizeof buf, "],\"be_goodput_mbps\":%.1f}",
                r.be_goodput_mbps);
  doc += buf;
  return doc;
}

}  // namespace
}  // namespace reflex

int main() {
  using namespace reflex;
  bench::Banner(
      "QoS policy comparison (fig5 scenario 1, 4 tenants, 1 thread)",
      "token_bucket vs qwin vs adaptive_be under identical load");

  std::vector<PolicyResult> results;
  for (core::QosPolicyKind kind :
       {core::QosPolicyKind::kTokenBucket, core::QosPolicyKind::kQwin,
        core::QosPolicyKind::kAdaptiveBe}) {
    results.push_back(RunPolicy(kind));
    PrintPolicy(results.back());
  }

  std::string doc = "{\"bench\":\"qos_policy_compare\",\"policies\":{";
  for (size_t i = 0; i < results.size(); ++i) {
    if (i > 0) doc += ",";
    doc += "\"" + results[i].policy + "\":" + PolicyJson(results[i]);
  }
  doc += "}}\n";
  obs::WriteFile("BENCH_qospolicy.json", doc);
  std::printf("wrote BENCH_qospolicy.json\n");

  std::printf(
      "Check: every policy keeps A and B within the 500us p95 SLO;\n"
      "policies differ in BE goodput and LC tail (see the table).\n");
  return 0;
}
