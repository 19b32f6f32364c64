// Determinism golden test: the Figure-5 style QoS scenario (2 LC + 2 BE
// tenants sharing one enforcing server) run twice in-process must
// produce bit-identical metrics and latency-histogram exports. Any
// drift here means a hidden source of nondeterminism crept into the
// stack -- which would silently invalidate every simtest repro
// artifact.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "client/load_generator.h"
#include "client/reflex_client.h"
#include "obs/export.h"
#include "sim/histogram.h"
#include "testing/harness.h"

namespace reflex {
namespace {

using testing::Harness;

void AppendHistogram(std::ostringstream& out, const char* name,
                     const sim::Histogram& h) {
  char mean[64];
  std::snprintf(mean, sizeof(mean), "%.17g", h.Mean());
  out << name << ": count=" << h.Count() << " min=" << h.Min()
      << " max=" << h.Max() << " mean=" << mean
      << " p50=" << h.Percentile(0.50) << " p95=" << h.Percentile(0.95)
      << " p99=" << h.Percentile(0.99) << "\n";
}

/** 64-bit FNV-1a over a string. */
uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

/** A server registry's JSON and CSV exports. */
struct RegistryExport {
  std::string json;
  std::string csv;
};

RegistryExport ExportRegistry(core::ReflexServer& server) {
  return {obs::RegistryToJson(server.SnapshotMetrics()),
          obs::RegistryToCsv(server.SnapshotMetrics())};
}

/**
 * One miniature fig5 run; returns the full serialized observable state
 * and, if `registry` is set, stores the server registry's exports there.
 */
std::string RunQosScenarioOnce(RegistryExport* registry = nullptr) {
  core::ServerOptions options;
  options.num_threads = 1;
  options.qos.enforce = true;
  Harness h(options);

  struct Setup {
    const char* name;
    core::TenantClass cls;
    core::SloSpec slo;
    double offered_iops;  // 0 => closed loop
    double read_fraction;
  };
  std::vector<Setup> setups = {
      {"A", core::TenantClass::kLatencyCritical,
       {40000, 1.0, sim::Micros(500), 0.95, 4096}, 30000, 1.0},
      {"B", core::TenantClass::kLatencyCritical,
       {20000, 0.8, sim::Micros(500), 0.95, 4096}, 15000, 0.8},
      {"C", core::TenantClass::kBestEffort, {}, 0, 0.95},
      {"D", core::TenantClass::kBestEffort, {}, 0, 0.25},
  };

  std::vector<std::unique_ptr<client::ReflexClient>> clients;
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  std::vector<std::unique_ptr<client::LoadGenerator>> generators;
  int idx = 0;
  for (const Setup& s : setups) {
    core::Tenant* tenant = h.server.RegisterTenant(s.slo, s.cls);
    if (tenant == nullptr) ADD_FAILURE() << s.name << " inadmissible";
    client::ReflexClient::Options copts;
    copts.num_connections = 4;
    copts.seed = 500 + idx;
    clients.push_back(std::make_unique<client::ReflexClient>(
        h.sim, h.server, h.client_machine, copts));
    sessions.push_back(clients.back()->AttachSession(tenant->handle()));

    client::LoadGenSpec spec;
    spec.read_fraction = s.read_fraction;
    spec.request_bytes = 4096;
    if (s.offered_iops > 0) {
      spec.offered_iops = s.offered_iops;
      spec.poisson_arrivals = false;
    } else {
      spec.queue_depth = 8;
    }
    spec.seed = 900 + idx;
    generators.push_back(std::make_unique<client::LoadGenerator>(
        h.sim, *sessions.back(), spec));
    ++idx;
  }

  const sim::TimeNs warm = sim::Millis(10);
  const sim::TimeNs end = sim::Millis(60);
  for (auto& g : generators) g->Run(warm, end);
  for (auto& g : generators) {
    EXPECT_TRUE(h.RunUntilDone(g->Done(), sim::Seconds(60)));
  }

  std::ostringstream out;
  for (size_t i = 0; i < generators.size(); ++i) {
    EXPECT_GT(generators[i]->AchievedIops(), 0.0)
        << setups[i].name << " did no work";
    char iops[64];
    std::snprintf(iops, sizeof(iops), "%.17g",
                  generators[i]->AchievedIops());
    out << setups[i].name << " iops=" << iops << "\n";
    AppendHistogram(out, "read_latency", generators[i]->read_latency());
    AppendHistogram(out, "write_latency", generators[i]->write_latency());
  }
  const RegistryExport exported = ExportRegistry(h.server);
  out << exported.json << exported.csv;
  if (registry != nullptr) *registry = exported;
  return out.str();
}

TEST(DeterminismGoldenTest, Fig5QosScenarioIsBitIdenticalAcrossRuns) {
  const std::string first = RunQosScenarioOnce();
  const std::string second = RunQosScenarioOnce();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second)
      << "two in-process runs of the same scenario diverged: the "
         "simulation has a hidden source of nondeterminism";
}

/**
 * Per-tenant export with >= 10 tenants: two runs must be bit-identical
 * AND rows must come out in numeric tenant-handle order. Guards the
 * regression where lexicographic label ordering moved tenant=10..12
 * between tenant=1 and tenant=2 as soon as an 11th tenant registered.
 */
std::string RunManyTenantExportOnce(std::vector<size_t>* tenant_rows,
                                    RegistryExport* registry = nullptr) {
  core::ServerOptions options;
  options.num_threads = 1;
  Harness h(options);

  std::vector<std::unique_ptr<client::ReflexClient>> clients;
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  std::vector<std::unique_ptr<client::LoadGenerator>> generators;
  for (int i = 0; i < 12; ++i) {
    core::Tenant* tenant =
        h.server.RegisterTenant({}, core::TenantClass::kBestEffort);
    if (tenant == nullptr) ADD_FAILURE() << "tenant " << i << " inadmissible";
    client::ReflexClient::Options copts;
    copts.seed = 700 + i;
    clients.push_back(std::make_unique<client::ReflexClient>(
        h.sim, h.server, h.client_machine, copts));
    sessions.push_back(clients.back()->AttachSession(tenant->handle()));
    client::LoadGenSpec spec;
    spec.read_fraction = 1.0;
    spec.request_bytes = 4096;
    spec.queue_depth = 2;
    spec.seed = 1100 + i;
    generators.push_back(std::make_unique<client::LoadGenerator>(
        h.sim, *sessions.back(), spec));
  }
  for (auto& g : generators) g->Run(sim::Millis(1), sim::Millis(10));
  for (auto& g : generators) {
    EXPECT_TRUE(h.RunUntilDone(g->Done(), sim::Seconds(60)));
  }

  const RegistryExport exported = ExportRegistry(h.server);
  const std::string& csv = exported.csv;
  if (registry != nullptr) *registry = exported;
  if (tenant_rows != nullptr) {
    tenant_rows->clear();
    std::istringstream lines(csv);
    std::string line;
    while (std::getline(lines, line)) {
      const std::string prefix = "tenant_queue_depth,{tenant=";
      const auto pos = line.find(prefix);
      if (pos == std::string::npos) continue;
      tenant_rows->push_back(static_cast<size_t>(
          std::stoul(line.substr(pos + prefix.size()))));
    }
  }
  return csv;
}

TEST(DeterminismGoldenTest, ManyTenantExportIsIdenticalAndNumericOrdered) {
  std::vector<size_t> rows;
  const std::string first = RunManyTenantExportOnce(&rows);
  const std::string second = RunManyTenantExportOnce(nullptr);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "12-tenant export diverged across runs";
  ASSERT_EQ(rows.size(), 12u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], i + 1)
        << "per-tenant rows not in numeric handle order at row " << i;
  }
}

/**
 * The two scenarios above compare two runs of one build, so they cannot
 * see an export that changed in both. These hashes pin the exports
 * themselves: any change to a name, kind, label or value of the server
 * registry shows up here and must be explained.
 */
TEST(DeterminismGoldenTest, RegistryExportsArePinned) {
  RegistryExport fig5;
  RunQosScenarioOnce(&fig5);
  EXPECT_EQ(Fnv1a64(fig5.json), 0x4367618e2671a396ULL);
  EXPECT_EQ(Fnv1a64(fig5.csv), 0x6a1ad99ae3549d0bULL);

  RegistryExport many;
  RunManyTenantExportOnce(nullptr, &many);
  EXPECT_EQ(Fnv1a64(many.json), 0xcc40aa18c65853bbULL);
  EXPECT_EQ(Fnv1a64(many.csv), 0xdcb280cc813b7524ULL);
}

}  // namespace
}  // namespace reflex
