// R-way shard replication: replica placement math, fan-out write /
// steered-read semantics, dirty-replica exclusion and failover, and
// the steering determinism goldens.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "cluster/cluster_client.h"
#include "cluster/shard_map.h"
#include "sim/fault.h"
#include "testing/cluster_harness.h"
#include "testing/histogram_assert.h"

namespace reflex {
namespace {

using cluster::ClusterClient;
using cluster::ReplicaTarget;
using cluster::ShardExtent;
using cluster::ShardSplit;
using cluster::ShardMap;
using cluster::ShardMapOptions;
using cluster::SteeringPolicy;
using core::ReqStatus;
using core::SloSpec;
using core::TenantClass;
using testing::ClusterHarness;

ShardMap MakeMap(int num_shards, int replication, uint64_t capacity = 4096) {
  ShardMapOptions options;
  options.stripe_sectors = 8;
  options.replication = replication;
  ShardMap map(options);
  for (int i = 0; i < num_shards; ++i) {
    map.AddShard(static_cast<uint32_t>(100 + i), capacity);
  }
  return map;
}

TEST(ReplicationTest, StripedReplicaLayoutIsDistinctAndCollisionFree) {
  const ShardMap map = MakeMap(3, 2);
  EXPECT_EQ(map.replication(), 2);
  // Every shard donates half its stripes to replica slots.
  EXPECT_EQ(map.capacity_sectors(), 3u * (4096 / (8 * 2)) * 8);

  std::map<std::pair<int, uint64_t>, uint64_t> slot_owner;
  const uint64_t num_stripes = map.capacity_sectors() / 8;
  for (uint64_t s = 0; s < num_stripes; ++s) {
    const std::vector<ReplicaTarget> targets = map.ReplicasForStripe(s);
    ASSERT_EQ(targets.size(), 2u) << "stripe " << s;
    EXPECT_EQ(targets[0].shard_index, map.ShardIndexForStripe(s));
    EXPECT_EQ(targets[0].shard_index, static_cast<int>(s % 3));
    EXPECT_EQ(targets[1].shard_index, static_cast<int>((s + 1) % 3));
    for (const ReplicaTarget& t : targets) {
      const auto slot = std::make_pair(t.shard_index, t.shard_lba);
      EXPECT_TRUE(slot_owner.emplace(slot, s).second)
          << "stripe " << s << " collides with stripe " << slot_owner[slot]
          << " on shard " << t.shard_index << " lba " << t.shard_lba;
      EXPECT_LT(t.shard_lba + 8, 4096u + 1) << "slot beyond shard capacity";
    }
  }
}

TEST(ReplicationTest, ReplicationOneIsIdenticalToUnreplicatedMap) {
  const ShardMap replicated = MakeMap(3, 1);
  const ShardMap plain = MakeMap(3, 1);
  EXPECT_EQ(replicated.capacity_sectors(), plain.capacity_sectors());
  for (uint64_t lba = 0; lba < 128; lba += 13) {
    ShardSplit a;
    ShardSplit b;
    replicated.Split(lba, 24, &a);
    plain.Split(lba, 24, &b);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.replication(), 1u);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.Primary(a[i]).shard_index, b.Primary(b[i]).shard_index);
      EXPECT_EQ(a.Primary(a[i]).shard_lba, b.Primary(b[i]).shard_lba);
      EXPECT_EQ(a[i].sectors, b[i].sectors);
    }
  }
}

TEST(ReplicationTest, ReplicationIsClampedToShardCount) {
  const ShardMap map = MakeMap(2, 3);
  EXPECT_EQ(map.replication(), 2);
  for (uint64_t s = 0; s < 16; ++s) {
    EXPECT_EQ(map.ReplicasForStripe(s).size(), 2u);
  }
}

TEST(ReplicationTest, ReplicatedWriteLandsOnEveryReplica) {
  ClusterHarness h(ClusterHarness::MakeOptions(2, 8, /*replication=*/2));
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  const uint32_t kSectors = 16;  // two stripes, both shards as primary
  std::vector<uint8_t> out(kSectors * core::kSectorBytes);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>((i * 17 + 3) & 0xff);
  }
  auto write = session->Write(0, kSectors, out.data());
  ASSERT_TRUE(h.Await(write));
  ASSERT_TRUE(write.Get().ok());

  // Read every placement of every extent directly: each replica must
  // hold a byte-exact copy of its extent.
  ShardSplit extents;
  h.cluster.shard_map().Split(0, kSectors, &extents);
  ASSERT_EQ(extents.replication(), 2u);
  for (const ShardExtent& e : extents) {
    for (const ReplicaTarget& t : extents.Targets(e)) {
      std::vector<uint8_t> in(
          static_cast<size_t>(e.sectors) * core::kSectorBytes, 0);
      auto read = session->shard_session(t.shard_index)
                      .Read(t.shard_lba, e.sectors, in.data());
      ASSERT_TRUE(h.Await(read));
      ASSERT_TRUE(read.Get().ok());
      EXPECT_EQ(std::memcmp(
                    in.data(),
                    out.data() + static_cast<size_t>(e.buffer_offset_sectors) *
                                     core::kSectorBytes,
                    in.size()),
                0)
          << "shard " << t.shard_index << " lba " << t.shard_lba;
    }
  }
}

// Steering determinism golden: with identical queue-depth estimates,
// the tie breaks by shard id -- a full scan of stripe 1's replica set
// {shard 1 (primary), shard 0} must serve from shard 0.
TEST(ReplicationTest, SteeringTieBreaksByShardId) {
  ClusterClient::Options copts;
  copts.steering = SteeringPolicy::kFullScan;
  ClusterHarness h(ClusterHarness::MakeOptions(2, 8, /*replication=*/2),
                   copts);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  auto read = session->Read(/*lba=*/8, /*sectors=*/4);
  ASSERT_TRUE(h.Await(read));
  ASSERT_TRUE(read.Get().ok());
  EXPECT_EQ(session->shard_reads_served(0), 1);
  EXPECT_EQ(session->shard_reads_served(1), 0);
  EXPECT_EQ(session->read_failovers(), 0);
}

// Satellite pin: per-shard latency attribution follows the shard that
// actually served the read. Stripe 1's primary (shard 1) is forced to
// fail, so the read fails over to the replica on shard 0 -- the
// sample must land in shard 0's histogram and shard 1's must stay
// empty.
TEST(ReplicationTest, HistogramAttributionFollowsServingShard) {
  ClusterHarness h(ClusterHarness::MakeOptions(2, 8, /*replication=*/2));
  sim::FaultPlan plan(h.sim, 11);
  h.cluster.server(1).SetFaultPlan(&plan);
  plan.ScheduleWindow(sim::FaultKind::kServerDeviceError, sim::Micros(1),
                      sim::Seconds(10));
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  auto read = session->Read(/*lba=*/8, /*sectors=*/4);
  ASSERT_TRUE(h.Await(read));
  ASSERT_TRUE(read.Get().ok()) << "the replica must serve the read";
  EXPECT_EQ(session->read_failovers(), 1);
  EXPECT_EQ(session->shard_reads_served(0), 1);
  EXPECT_EQ(session->shard_reads_served(1), 0);
  EXPECT_TRUE(testing::HasSamples(session->shard_latency(0)))
      << "the serving replica records the latency";
  EXPECT_FALSE(testing::HasSamples(session->shard_latency(1)))
      << "the failed primary must not be attributed the sample";
}

// One retry owner: while another live replica is untried, a sub-read
// has no retransmit budget, so the first timeout on a dead primary
// fails the read over at once -- not after the shard client's whole
// budget (6 timeouts plus backoff) is spent on the dead link.
TEST(ReplicationTest, ReadFailsOverAtFirstTimeout) {
  ClusterClient::Options copts;
  copts.client = testing::RetryingClientOptions();
  copts.steering = SteeringPolicy::kPrimaryOnly;
  ClusterHarness h(ClusterHarness::MakeOptions(2, 8, /*replication=*/2),
                   copts);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  // Stripe 0: primary shard 0 (link down), replica shard 1.
  sim::FaultPlan plan(h.sim, 5);
  h.net.SetFaultPlan(&plan);
  plan.ScheduleWindow(sim::FaultKind::kNetLinkFlap, h.sim.Now(),
                      sim::Millis(50),
                      static_cast<uint64_t>(h.cluster.machine(0)->id()));
  auto read = session->Read(/*lba=*/0, /*sectors=*/4);
  ASSERT_TRUE(h.Await(read));
  ASSERT_EQ(read.Get().status, ReqStatus::kOk);
  EXPECT_LT(read.Get().Latency(), 2 * copts.client.retry.request_timeout)
      << "the read must fail over at the dead primary's first timeout";
  EXPECT_EQ(session->read_failovers(), 1);
  EXPECT_EQ(session->shard_reads_served(1), 1);
  EXPECT_EQ(h.client.shard_client(0).fault_stats().timeouts, 1);
  EXPECT_EQ(h.client.shard_client(0).fault_stats().retries, 0)
      << "the dead shard's client must not retransmit a read that has "
         "another replica to try";
}

// The companion at R = 1: with no other copy to fail over to, the
// read keeps the shard client's retransmit budget and rides out a link
// flap shorter than that budget.
TEST(ReplicationTest, UnreplicatedReadStillRetransmitsAcrossAFlap) {
  ClusterClient::Options copts;
  copts.client = testing::RetryingClientOptions();
  ClusterHarness h(ClusterHarness::MakeOptions(2, 8, /*replication=*/1),
                   copts);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  sim::FaultPlan plan(h.sim, 5);
  h.net.SetFaultPlan(&plan);
  plan.ScheduleWindow(sim::FaultKind::kNetLinkFlap, h.sim.Now(),
                      sim::Millis(2),
                      static_cast<uint64_t>(h.cluster.machine(0)->id()));
  auto read = session->Read(/*lba=*/0, /*sectors=*/4);
  ASSERT_TRUE(h.Await(read));
  ASSERT_EQ(read.Get().status, ReqStatus::kOk);
  EXPECT_GT(h.client.shard_client(0).fault_stats().retries, 0);
  EXPECT_EQ(session->read_failovers(), 0);
  EXPECT_EQ(session->shard_reads_served(0), 1);
}

TEST(ReplicationTest, WriteSurvivorMarksDeadReplicaDirtyAndExcludesIt) {
  ClusterHarness h(ClusterHarness::MakeOptions(2, 8, /*replication=*/2));
  sim::FaultPlan plan(h.sim, 13);
  h.cluster.server(1).SetFaultPlan(&plan);
  plan.ScheduleWindow(sim::FaultKind::kServerDeviceError, sim::Micros(1),
                      sim::Seconds(10));
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  // Stripe 0: primary shard 0 (healthy), replica shard 1 (failing).
  std::vector<uint8_t> out(4 * core::kSectorBytes, 0xAB);
  auto write = session->Write(0, 4, out.data());
  ASSERT_TRUE(h.Await(write));
  EXPECT_TRUE(write.Get().ok())
      << "the write must commit on the surviving replica";
  EXPECT_TRUE(h.client.IsDirty(1));
  EXPECT_EQ(h.client.dirty_since_version(1), 1u);
  EXPECT_FALSE(h.client.IsDirty(0));

  // Reads steer away from the dirty replica, even for stripes whose
  // primary it is (stripe 1's primary is shard 1).
  auto read = session->Read(8, 4);
  ASSERT_TRUE(h.Await(read));
  ASSERT_TRUE(read.Get().ok());
  EXPECT_EQ(session->shard_reads_served(1), 0);
  EXPECT_EQ(session->read_failovers(), 0)
      << "a dirty replica is excluded upfront, not failed over from";

  h.client.ReinstateShard(1);
  EXPECT_FALSE(h.client.IsDirty(1));
}

TEST(ReplicationTest, AllReplicasDirtyFailsReadsClosed) {
  ClusterHarness h(ClusterHarness::MakeOptions(2, 8, /*replication=*/2));
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);
  h.client.MarkDirty(0, 1);
  h.client.MarkDirty(1, 1);

  auto read = session->Read(0, 4);
  ASSERT_TRUE(h.Await(read));
  EXPECT_FALSE(read.Get().ok());
  EXPECT_EQ(read.Get().status, ReqStatus::kDeviceError)
      << "no readable copy: the read must fail, never serve stale data";
}

// Writes keep flowing to a dirty replica (bounding its divergence), so
// after out-of-band reinstatement it serves current data.
TEST(ReplicationTest, DirtyReplicaStillReceivesWritesAndServesAfterReinstate) {
  ClusterHarness h(ClusterHarness::MakeOptions(2, 8, /*replication=*/2));
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  h.client.MarkDirty(1, 1);
  // Stripe 1: primary shard 1 (dirty), replica shard 0. Commits via
  // shard 0; shard 1 is written anyway.
  std::vector<uint8_t> out(4 * core::kSectorBytes);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>((i * 7 + 1) & 0xff);
  }
  auto write = session->Write(8, 4, out.data());
  ASSERT_TRUE(h.Await(write));
  ASSERT_TRUE(write.Get().ok());

  h.client.ReinstateShard(1);
  // Primary-only steering sends stripe 1's read to shard 1.
  std::vector<uint8_t> in(out.size(), 0);
  auto read = session->Read(8, 4, in.data());
  ASSERT_TRUE(h.Await(read));
  ASSERT_TRUE(read.Get().ok());
  EXPECT_EQ(session->shard_reads_served(1), 1);
  EXPECT_EQ(std::memcmp(in.data(), out.data(), out.size()), 0)
      << "the reinstated replica must hold the write issued while dirty";
}

// Round-trips under every steering policy on a replicated cluster.
TEST(ReplicationTest, RoundTripsAreByteExactUnderEverySteeringPolicy) {
  for (SteeringPolicy policy :
       {SteeringPolicy::kPrimaryOnly, SteeringPolicy::kPowerOfTwo,
        SteeringPolicy::kFullScan}) {
    ClusterClient::Options copts;
    copts.steering = policy;
    ClusterHarness h(ClusterHarness::MakeOptions(3, 8, /*replication=*/3),
                     copts);
    auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
    ASSERT_NE(session, nullptr);

    std::vector<uint8_t> out(24 * core::kSectorBytes);
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<uint8_t>((i * 31 + 5) & 0xff);
    }
    auto write = session->Write(3, 24, out.data());
    ASSERT_TRUE(h.Await(write));
    ASSERT_TRUE(write.Get().ok());

    std::vector<uint8_t> in(out.size(), 0);
    auto read = session->Read(3, 24, in.data());
    ASSERT_TRUE(h.Await(read));
    ASSERT_TRUE(read.Get().ok());
    EXPECT_EQ(std::memcmp(in.data(), out.data(), out.size()), 0)
        << "policy " << cluster::SteeringPolicyName(policy);
  }
}

// Power-of-two steering consumes the session's named RNG stream --
// two identical runs must still be bit-identical.
TEST(ReplicationTest, ReplicatedRunsAreDeterministic) {
  auto run = [] {
    ClusterClient::Options copts;
    copts.steering = SteeringPolicy::kPowerOfTwo;
    ClusterHarness h(ClusterHarness::MakeOptions(3, 8, /*replication=*/3),
                     copts);
    auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
    std::vector<sim::TimeNs> completions;
    for (int i = 0; i < 16; ++i) {
      auto io = i % 2 == 0 ? session->Write(i * 5, 11)
                           : session->Read(i * 5, 11);
      EXPECT_TRUE(h.Await(io));
      completions.push_back(io.Get().complete_time);
    }
    return completions;
  };
  EXPECT_EQ(run(), run());
}

TEST(ReplicationTest, SteeringPolicyNamesRoundTrip) {
  for (SteeringPolicy policy :
       {SteeringPolicy::kPrimaryOnly, SteeringPolicy::kPowerOfTwo,
        SteeringPolicy::kFullScan}) {
    SteeringPolicy parsed = SteeringPolicy::kPrimaryOnly;
    ASSERT_TRUE(cluster::SteeringPolicyFromName(
        cluster::SteeringPolicyName(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  SteeringPolicy out;
  EXPECT_FALSE(cluster::SteeringPolicyFromName("garbage", &out));
}

}  // namespace
}  // namespace reflex
