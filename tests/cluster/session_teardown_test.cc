// Destroying a ClusterSession with I/O in flight. The session's
// requests are coroutine frames parked on sub-I/O futures of the
// ClusterClient's per-shard ReflexClients, or on a kWrongShard backoff
// timer. Those clients outlive the session and resolve the futures
// later, so the destructor must make each future and timer forget its
// frame before destroying it: a later response or wakeup must resume
// nothing. A read's late response must not copy into the caller's
// buffer either, which the caller may free once the session is gone.
// An AddressSanitizer build reports the use after free that a frame
// destroyed while still registered, or a copy into a freed buffer,
// would cause; every build checks that the simulation keeps running
// and the caller's future stays unresolved.

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

// A session attached to a tenant registered elsewhere leaves the
// registration in place, so its reads still in flight at teardown
// complete kOk at the shards. Their responses must copy nothing: one
// buffer is freed right after the teardown (AddressSanitizer reports a
// copy into it), the other stays alive and must stay untouched.
TEST(ClusterSessionTeardownTest, LateReadOfAttachedSessionTouchesNoBuffer) {
  ClusterHarness h(ClusterHarness::MakeOptions(2, kStripeSectors,
                                               /*replication=*/2));
  auto owner = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(owner, nullptr);
  // Nonzero bytes on flash, so a copy into a zeroed buffer shows.
  const size_t bytes = kStripeSectors * core::kSectorBytes;
  std::vector<uint8_t> pattern(2 * bytes, 0xa7);
  auto write = owner->Write(0, 2 * kStripeSectors, pattern.data());
  ASSERT_TRUE(h.Await(write) && write.Get().ok());

  auto session = h.client.AttachSession(owner->tenant());
  ASSERT_NE(session, nullptr);
  auto freed = std::make_unique<uint8_t[]>(bytes);
  std::vector<uint8_t> kept(bytes, 0);
  // Each straddles a stripe boundary: two extents, one per shard.
  auto read_freed =
      session->Read(kStripeSectors / 2, kStripeSectors, freed.get());
  auto read_kept =
      session->Read(kStripeSectors / 2, kStripeSectors, kept.data());
  session.reset();
  freed.reset();
  RunPastTeardown(h);
  EXPECT_FALSE(read_freed.Ready());
  EXPECT_FALSE(read_kept.Ready());
  EXPECT_EQ(kept, std::vector<uint8_t>(bytes, 0));
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
