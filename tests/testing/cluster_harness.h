#ifndef REFLEX_TESTS_TESTING_CLUSTER_HARNESS_H_
#define REFLEX_TESTS_TESTING_CLUSTER_HARNESS_H_

#include "client/reflex_client.h"
#include "cluster/cluster_client.h"
#include "cluster/flash_cluster.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "testing/harness.h"

namespace reflex::testing {

/** Standard LC SLO for admission and QoS tests. */
inline core::SloSpec LcSlo(uint32_t iops, double read_fraction = 1.0,
                           sim::TimeNs latency = sim::Micros(500)) {
  core::SloSpec slo;
  slo.iops = iops;
  slo.read_fraction = read_fraction;
  slo.latency = latency;
  return slo;
}

/** A FlashCluster plus one client machine, ready for I/O. */
struct ClusterHarness {
  explicit ClusterHarness(int num_shards = 2, uint32_t stripe_sectors = 8)
      : ClusterHarness(MakeOptions(num_shards, stripe_sectors)) {}

  explicit ClusterHarness(cluster::FlashClusterOptions options)
      : ClusterHarness(options, cluster::ClusterClient::Options()) {}

  ClusterHarness(cluster::FlashClusterOptions options,
                 cluster::ClusterClient::Options client_options)
      : net(sim),
        cluster(sim, net, options),
        client_machine(net.AddMachine("client-0")),
        client(cluster, client_machine, client_options) {}

  static cluster::FlashClusterOptions MakeOptions(int num_shards,
                                                  uint32_t stripe_sectors,
                                                  int replication = 1) {
    cluster::FlashClusterOptions options;
    options.num_shards = num_shards;
    options.calibration = flash::CannedCalibrationA();
    options.shard_map.stripe_sectors = stripe_sectors;
    options.shard_map.replication = replication;
    return options;
  }

  template <typename ReadyFn>
  bool RunUntilReady(const ReadyFn& ready,
                     sim::TimeNs deadline = sim::Seconds(30)) {
    while (!ready() && sim.Now() < deadline) {
      sim.RunUntil(sim.Now() + sim::Millis(1));
    }
    return ready();
  }

  bool Await(const sim::Future<client::IoResult>& io,
             sim::TimeNs deadline = sim::Seconds(30)) {
    return RunUntilReady([&io] { return io.Ready(); }, deadline);
  }

  sim::Simulator sim;
  net::Network net;
  cluster::FlashCluster cluster;
  net::Machine* client_machine;
  cluster::ClusterClient client;
};

}  // namespace reflex::testing

#endif  // REFLEX_TESTS_TESTING_CLUSTER_HARNESS_H_
