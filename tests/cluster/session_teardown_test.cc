// Destroying a ClusterSession with I/O in flight. The session's
// requests are coroutine frames parked on sub-I/O futures of the
// ClusterClient's per-shard ReflexClients, or on a kWrongShard backoff
// timer. Those clients outlive the session and resolve the futures
// later, so the destructor must make each future and timer forget its
// frame before destroying it: a later response or wakeup must resume
// nothing. An AddressSanitizer build reports the use after free that a
// frame destroyed while still registered would cause; every build
// checks that the simulation keeps running and the caller's future
// stays unresolved.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/cluster_client.h"
#include "core/reflex_server.h"
#include "testing/cluster_harness.h"

namespace reflex {
namespace {

using core::SloSpec;
using core::TenantClass;
using testing::ClusterHarness;

constexpr uint32_t kStripeSectors = 8;

/** Runs 5 ms past the teardown: every sub-I/O of the destroyed
 * session has been answered by then. */
void RunPastTeardown(ClusterHarness& h) {
  const sim::TimeNs end = h.sim.Now() + sim::Millis(5);
  h.sim.RunUntil(end);
  EXPECT_EQ(h.sim.Now(), end);
}

TEST(ClusterSessionTeardownTest, ReadInFlightAtTeardownResumesNothing) {
  ClusterHarness h(ClusterHarness::MakeOptions(2, kStripeSectors,
                                               /*replication=*/2));
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);
  // Straddles a stripe boundary: two extents, one per shard.
  std::vector<uint8_t> buffer(kStripeSectors * core::kSectorBytes, 0);
  auto read = session->Read(kStripeSectors / 2, kStripeSectors,
                            buffer.data());
  session.reset();
  RunPastTeardown(h);
  EXPECT_FALSE(read.Ready());
}

TEST(ClusterSessionTeardownTest, WriteInFlightAtTeardownResumesNothing) {
  ClusterHarness h(ClusterHarness::MakeOptions(2, kStripeSectors,
                                               /*replication=*/2));
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);
  std::vector<uint8_t> buffer(kStripeSectors * core::kSectorBytes, 0x5c);
  auto write = session->Write(kStripeSectors / 2, kStripeSectors,
                              buffer.data());
  session.reset();
  RunPastTeardown(h);
  EXPECT_FALSE(write.Ready());
}

TEST(ClusterSessionTeardownTest, WrongShardBackoffAtTeardownResumesNothing) {
  cluster::FlashClusterOptions options =
      ClusterHarness::MakeOptions(2, kStripeSectors);
  options.shard_map.migration_slots = 8;
  ClusterHarness h(options);
  // A gate no client epoch ever passes: every read of stripe 0 bounces
  // with kWrongShard, so the request cycles through refresh and backoff.
  const int gate_id = h.cluster.server(0).AddRangeGate(0, kStripeSectors);
  core::RangeGate* gate = h.cluster.server(0).FindRangeGate(gate_id);
  ASSERT_NE(gate, nullptr);
  gate->state = core::RangeGateState::kMoved;
  gate->min_epoch = ~uint64_t{0} - 1;

  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);
  auto read = session->Read(0, kStripeSectors);
  // Step until the first bounce has been taken: the request is now
  // parked on its 50 us backoff timer.
  while (session->wrong_shard_retries() == 0 &&
         h.sim.Now() < sim::Millis(10)) {
    h.sim.RunUntil(h.sim.Now() + sim::Micros(1));
  }
  ASSERT_EQ(session->wrong_shard_retries(), 1);
  session.reset();
  RunPastTeardown(h);
  EXPECT_FALSE(read.Ready());
}

}  // namespace
}  // namespace reflex
