#ifndef REFLEX_TESTS_TESTING_HARNESS_H_
#define REFLEX_TESTS_TESTING_HARNESS_H_

#include <memory>

#include "client/reflex_client.h"
#include "core/reflex_server.h"
#include "flash/calibration.h"
#include "flash/flash_device.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace reflex::testing {

/**
 * Client options with fast retry/reconnect timers, tuned so fault
 * tests recover within a few simulated milliseconds. Shared by the
 * fault-injection suite and the simtest harness.
 */
inline client::ReflexClient::Options RetryingClientOptions() {
  client::ReflexClient::Options copts;
  copts.retry.request_timeout = sim::Millis(1);
  copts.retry.max_retries = 5;
  copts.retry.backoff_base = sim::Micros(100);
  copts.retry.reconnect_after_timeouts = 2;
  return copts;
}

/** Everything needed for an end-to-end ReFlex experiment. */
struct Harness {
  explicit Harness(core::ServerOptions options = core::ServerOptions(),
                   flash::DeviceProfile profile =
                       flash::DeviceProfile::DeviceA(),
                   uint64_t seed = 42)
      : net(sim),
        device(sim, profile, seed),
        server_machine(net.AddMachine("reflex-server")),
        client_machine(net.AddMachine("client-0")),
        server(sim, net, server_machine, device,
               flash::CannedCalibrationA(), options) {}

  sim::Simulator sim;
  net::Network net;
  flash::FlashDevice device;
  net::Machine* server_machine;
  net::Machine* client_machine;
  core::ReflexServer server;

  /** Registers a standard LC tenant usable for probe workloads. */
  core::Tenant* LcTenant(uint32_t iops = 50000, double read_fraction = 0.9,
                         sim::TimeNs latency = sim::Millis(2)) {
    core::SloSpec slo;
    slo.iops = iops;
    slo.read_fraction = read_fraction;
    slo.latency = latency;
    core::ReqStatus status;
    core::Tenant* t = server.RegisterTenant(
        slo, core::TenantClass::kLatencyCritical, &status);
    if (t == nullptr) {
      REFLEX_FATAL("harness LC tenant inadmissible (status=%d)",
                   static_cast<int>(status));
    }
    return t;
  }

  core::Tenant* BeTenant() {
    return server.RegisterTenant(core::SloSpec{},
                                 core::TenantClass::kBestEffort);
  }

  /**
   * Steps the simulator until `ready()` returns true or `deadline`
   * simulated time passes. Returns true if the condition was met.
   * (Plain Run() is unsuitable once a server exists: pollers and
   * monitors keep the event queue non-empty.)
   */
  template <typename ReadyFn>
  bool RunUntilReady(const ReadyFn& ready,
                     sim::TimeNs deadline = sim::Seconds(30)) {
    while (!ready() && sim.Now() < deadline) {
      sim.RunUntil(sim.Now() + sim::Millis(1));
    }
    return ready();
  }

  bool RunUntilDone(const sim::VoidFuture& future,
                    sim::TimeNs deadline = sim::Seconds(30)) {
    return RunUntilReady([&future] { return future.Ready(); }, deadline);
  }
};

}  // namespace reflex::testing

#endif  // REFLEX_TESTS_TESTING_HARNESS_H_
