#ifndef REFLEX_TESTS_TESTING_LOAD_FIXTURE_H_
#define REFLEX_TESTS_TESTING_LOAD_FIXTURE_H_

#include <memory>
#include <vector>

#include "client/load_generator.h"
#include "client/reflex_client.h"
#include "testing/harness.h"

namespace reflex::testing {

/**
 * A fleet of seeded best-effort clients driving closed-loop load
 * against a Harness server: one tenant + client + session + generator
 * per slot, with per-slot seeds derived from one base seed so two
 * fixtures with the same spec replay identically. Shared bring-up for
 * the e2e property sweeps and the simtest scenarios.
 */
struct SeededLoad {
  struct Spec {
    int tenants = 1;
    double read_fraction = 1.0;
    int queue_depth = 4;
    int64_t ops_per_tenant = 300;
    uint64_t seed = 1;
    int connections_per_client = 2;
  };

  SeededLoad(Harness& h, const Spec& spec) : harness(h) {
    for (int i = 0; i < spec.tenants; ++i) {
      core::Tenant* t = h.BeTenant();
      tenants.push_back(t);
      client::ReflexClient::Options copts;
      copts.num_connections = spec.connections_per_client;
      copts.seed = spec.seed + static_cast<uint64_t>(i);
      clients.push_back(std::make_unique<client::ReflexClient>(
          h.sim, h.server, h.client_machine, copts));
      sessions.push_back(clients.back()->AttachSession(t->handle()));
      client::LoadGenSpec gspec;
      gspec.read_fraction = spec.read_fraction;
      gspec.queue_depth = spec.queue_depth;
      gspec.stop_after_ops = spec.ops_per_tenant;
      gspec.seed = spec.seed * 31 + static_cast<uint64_t>(i);
      generators.push_back(std::make_unique<client::LoadGenerator>(
          h.sim, *sessions.back(), gspec));
    }
  }

  void Start() {
    for (auto& g : generators) g->Run(0, 0);
  }

  /**
   * Steps the simulator until every generator finishes (or `deadline`
   * passes), then drains in-flight responses for 10ms of simulated
   * time. Returns true iff all generators completed.
   */
  bool AwaitAll(sim::TimeNs deadline = sim::Seconds(120)) {
    bool all = true;
    for (auto& g : generators) {
      all &= harness.RunUntilDone(g->Done(), deadline);
    }
    harness.sim.RunUntil(harness.sim.Now() + sim::Millis(10));
    return all;
  }

  int64_t TotalOps() const {
    int64_t ops = 0;
    for (const auto& g : generators) ops += g->ops_in_window();
    return ops;
  }

  int64_t TotalErrors() const {
    int64_t errors = 0;
    for (const auto& g : generators) {
      errors += g->read_errors() + g->write_errors();
    }
    return errors;
  }

  Harness& harness;
  std::vector<core::Tenant*> tenants;
  std::vector<std::unique_ptr<client::ReflexClient>> clients;
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  std::vector<std::unique_ptr<client::LoadGenerator>> generators;
};

}  // namespace reflex::testing

#endif  // REFLEX_TESTS_TESTING_LOAD_FIXTURE_H_
