// MigrationCoordinator end-to-end: copy-then-forward preserves data
// across a live range handoff, writes racing the copy are recopied,
// failures abort with the source still authoritative, concurrent
// batches are refused, and the SLO-aware autoscaler resizes the
// active set hitlessly through the coordinator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "client/load_generator.h"
#include "cluster/cluster_client.h"
#include "cluster/cluster_control_plane.h"
#include "cluster/migration.h"
#include "cluster/shard_map.h"
#include "sim/fault.h"
#include "testing/harness.h"
#include "testing/cluster_harness.h"

namespace reflex {
namespace {

using cluster::ClusterControlPlane;
using cluster::FlashClusterOptions;
using cluster::MigrationCoordinator;
using core::SloSpec;
using core::TenantClass;
using testing::ClusterHarness;

constexpr uint32_t kStripeSectors = 8;

FlashClusterOptions MobileOptions(int num_shards, int replication = 1,
                                  uint32_t migration_slots = 8) {
  FlashClusterOptions options =
      ClusterHarness::MakeOptions(num_shards, kStripeSectors, replication);
  options.shard_map.migration_slots = migration_slots;
  return options;
}

std::vector<uint8_t> Pattern(size_t bytes, uint8_t salt) {
  std::vector<uint8_t> out(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    out[i] = static_cast<uint8_t>((i * 131 + salt) & 0xff);
  }
  return out;
}

template <typename T>
bool Await(ClusterHarness& h, const sim::Future<T>& f,
           sim::TimeNs deadline = sim::Seconds(30)) {
  return h.RunUntilReady([&f] { return f.Ready(); }, deadline);
}

TEST(MigrationTest, LiveRangeMigrationPreservesDataAndFlipsTheMapOnce) {
  ClusterHarness h(MobileOptions(2));
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  // Stripes 0 and 2 live on shard 0 (striped, 2 shards).
  const auto a = Pattern(kStripeSectors * core::kSectorBytes, 3);
  const auto b = Pattern(kStripeSectors * core::kSectorBytes, 7);
  auto w0 = session->Write(0, kStripeSectors,
                           const_cast<uint8_t*>(a.data()));
  auto w2 = session->Write(2 * kStripeSectors, kStripeSectors,
                           const_cast<uint8_t*>(b.data()));
  ASSERT_TRUE(Await(h, w0) && w0.Get().ok());
  ASSERT_TRUE(Await(h, w2) && w2.Get().ok());

  auto done = coordinator.MigrateRange(0, 1, 0, 3);
  ASSERT_TRUE(Await(h, done));
  EXPECT_TRUE(done.Get());
  EXPECT_EQ(coordinator.stats().migrations_committed, 1);
  EXPECT_EQ(coordinator.stats().migrations_aborted, 0);
  EXPECT_EQ(coordinator.stats().stripes_moved, 2);
  EXPECT_EQ(h.cluster.shard_map().epoch(), 1u);
  EXPECT_EQ(h.cluster.shard_map().num_overrides(), 2u);
  EXPECT_EQ(h.cluster.shard_map().ShardIndexForStripe(0), 1);
  EXPECT_EQ(h.cluster.shard_map().ShardIndexForStripe(2), 1);
  // The moved ranges stay guarded on the source: stale-mapped traffic
  // must bounce, not read pre-migration bytes.
  EXPECT_TRUE(h.cluster.server(0).HasRangeGates());

  h.client.RefreshMap();
  std::vector<uint8_t> in(a.size(), 0);
  auto r0 = session->Read(0, kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, r0) && r0.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), a.data(), in.size()), 0);
  auto r2 = session->Read(2 * kStripeSectors, kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, r2) && r2.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), b.data(), in.size()), 0);
}

// A client write admitted during the copy window (the before_cutover
// race point) dirties the gate and must reach the target via a recopy
// round -- losing it is exactly the drop_forwarded_write mutation.
TEST(MigrationTest, WriteRacingTheCopyIsRecopiedToTheTarget) {
  ClusterHarness h(MobileOptions(2));
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  const auto old_data = Pattern(kStripeSectors * core::kSectorBytes, 11);
  const auto new_data = Pattern(kStripeSectors * core::kSectorBytes, 42);
  auto seed_write = session->Write(0, kStripeSectors,
                                   const_cast<uint8_t*>(old_data.data()));
  ASSERT_TRUE(Await(h, seed_write) && seed_write.Get().ok());

  coordinator.before_cutover = [&]() {
    // Issued through the still-stale client map: routed to the source,
    // admitted by the kCopying gate, counted and dirty-tracked.
    return session->Write(0, kStripeSectors,
                          const_cast<uint8_t*>(new_data.data()));
  };
  auto done = coordinator.MigrateRange(0, 1, 0, 1);
  ASSERT_TRUE(Await(h, done));
  EXPECT_TRUE(done.Get());
  EXPECT_GE(coordinator.stats().dirty_recopies, 1)
      << "the raced write must force a recopy round";

  h.client.RefreshMap();
  std::vector<uint8_t> in(new_data.size(), 0);
  auto read = session->Read(0, kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, read) && read.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), new_data.data(), in.size()), 0)
      << "the target must hold the write that raced the copy";
}

// One write extent can span two stripes migrating off the same shard.
// Base placements never form one (stripes s and s+1 live on different
// shards), but landing slots do: two logically adjacent stripes moved
// onto one shard take adjacent slots there. A write across both must
// dirty both stripes' gates; dirtying only the first loses the write's
// tail on the second stripe at cutover.
TEST(MigrationTest, WriteStraddlingTwoMigratingStripesIsRecopiedOnBoth) {
  ClusterHarness h(MobileOptions(3));
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  const size_t stripe_bytes = kStripeSectors * core::kSectorBytes;
  const auto old_data = Pattern(2 * stripe_bytes, 5);
  const auto new_data = Pattern(stripe_bytes, 77);
  auto seed_write = session->Write(0, 2 * kStripeSectors,
                                   const_cast<uint8_t*>(old_data.data()));
  ASSERT_TRUE(Await(h, seed_write) && seed_write.Get().ok());

  // Stripes 0 and 1 live on shards 0 and 1. Move both onto shard 2,
  // where they take its first two landing slots.
  auto first = coordinator.MigrateRange(0, 2, 0, 1);
  ASSERT_TRUE(Await(h, first) && first.Get());
  auto second = coordinator.MigrateRange(1, 2, 1, 1);
  ASSERT_TRUE(Await(h, second) && second.Get());
  h.client.RefreshMap();
  cluster::ShardSplit split;
  h.client.local_map().Split(0, 2 * kStripeSectors, &split);
  ASSERT_EQ(split.size(), 1u) << "the pair must form one extent";
  ASSERT_EQ(split.Primary(split[0]).shard_index, 2);
  const int64_t recopies_before = coordinator.stats().dirty_recopies;

  // Sectors 4..11 of the pair: the back half of stripe 0 and the front
  // half of stripe 1, in one request to shard 2.
  const uint32_t half = kStripeSectors / 2;
  coordinator.before_cutover = [&]() {
    return session->Write(half, kStripeSectors,
                          const_cast<uint8_t*>(new_data.data()));
  };
  // Both leave shard 2: stripe 0 back home to shard 0, stripe 1 into a
  // landing slot there.
  auto done = coordinator.MigrateRange(2, 0, 0, 2);
  ASSERT_TRUE(Await(h, done));
  ASSERT_TRUE(done.Get());
  EXPECT_GE(coordinator.stats().dirty_recopies - recopies_before, 2)
      << "both stripes the write touched must be recopied";

  h.client.RefreshMap();
  ASSERT_EQ(h.client.local_map().ShardIndexForStripe(0), 0);
  ASSERT_EQ(h.client.local_map().ShardIndexForStripe(1), 0);
  std::vector<uint8_t> expected = old_data;
  std::memcpy(expected.data() + half * core::kSectorBytes, new_data.data(),
              new_data.size());
  std::vector<uint8_t> in(expected.size(), 0);
  auto read = session->Read(0, 2 * kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, read) && read.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), expected.data(), in.size()), 0)
      << "the target must hold the whole straddling write";
}

// A replica that missed a write is dirty in the client's view. If a
// migration then copies that replica's placement onto another shard,
// the copy is just as stale, so after the client refreshes its map
// the new shard must be dirty too -- otherwise reads steered to it
// return the pre-write data.
TEST(MigrationTest, MovedStaleReplicaMarksItsNewShardDirty) {
  cluster::ClusterClient::Options copts;
  copts.client = testing::RetryingClientOptions();
  copts.steering = cluster::SteeringPolicy::kFullScan;
  ClusterHarness h(MobileOptions(3, /*replication=*/2), copts);
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  // Stripe 0 lives on shards 0 (primary) and 1 (replica).
  const size_t bytes = kStripeSectors * core::kSectorBytes;
  const auto v1 = Pattern(bytes, 1);
  const auto v2 = Pattern(bytes, 2);
  auto w1 = session->Write(0, kStripeSectors, const_cast<uint8_t*>(v1.data()));
  ASSERT_TRUE(Await(h, w1) && w1.Get().ok());

  // Shard 1's link is down while v2 is written: its copy keeps v1 and
  // the client marks it dirty; the write commits on shard 0.
  sim::FaultPlan plan(h.sim, 3);
  h.net.SetFaultPlan(&plan);
  plan.ScheduleWindow(sim::FaultKind::kNetLinkFlap, h.sim.Now(),
                      sim::Millis(5),
                      static_cast<uint64_t>(h.cluster.machine(1)->id()));
  auto w2 = session->Write(0, kStripeSectors, const_cast<uint8_t*>(v2.data()));
  ASSERT_TRUE(Await(h, w2) && w2.Get().ok());
  ASSERT_TRUE(h.client.IsDirty(1));
  ASSERT_FALSE(h.client.IsDirty(2));
  h.sim.RunUntil(h.sim.Now() + sim::Millis(10));  // the link is back

  // Move shard 1's stale placement of stripe 0 onto shard 2.
  auto done = coordinator.MigrateRange(1, 2, 0, 1);
  ASSERT_TRUE(Await(h, done));
  ASSERT_TRUE(done.Get());

  h.client.RefreshMap();
  EXPECT_TRUE(h.client.IsDirty(2)) << "shard 2 now holds a stale copy";
  EXPECT_EQ(h.client.dirty_since_version(2),
            h.client.dirty_since_version(1));
  std::vector<uint8_t> in(bytes, 0);
  auto read = session->Read(0, kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, read) && read.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), v2.data(), in.size()), 0);
}

// The same inheritance for a stale primary, where it decides what a
// read returns: primary-only steering reads the moved primary unless
// the refresh marked its new shard dirty, and that copy predates the
// write the old shard missed.
TEST(MigrationTest, MovedStalePrimaryServesNoPreWriteBytes) {
  cluster::ClusterClient::Options copts;
  copts.client = testing::RetryingClientOptions();
  ClusterHarness h(MobileOptions(3, /*replication=*/2), copts);
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  // Stripe 0 lives on shards 0 (primary) and 1 (replica).
  const size_t bytes = kStripeSectors * core::kSectorBytes;
  const auto v1 = Pattern(bytes, 1);
  const auto v2 = Pattern(bytes, 2);
  auto w1 = session->Write(0, kStripeSectors, const_cast<uint8_t*>(v1.data()));
  ASSERT_TRUE(Await(h, w1) && w1.Get().ok());

  // Shard 0's link is down while v2 is written: the primary keeps v1
  // and the client marks shard 0 dirty; the write commits on shard 1.
  sim::FaultPlan plan(h.sim, 3);
  h.net.SetFaultPlan(&plan);
  plan.ScheduleWindow(sim::FaultKind::kNetLinkFlap, h.sim.Now(),
                      sim::Millis(5),
                      static_cast<uint64_t>(h.cluster.machine(0)->id()));
  auto w2 = session->Write(0, kStripeSectors, const_cast<uint8_t*>(v2.data()));
  ASSERT_TRUE(Await(h, w2) && w2.Get().ok());
  ASSERT_TRUE(h.client.IsDirty(0));
  ASSERT_FALSE(h.client.IsDirty(2));
  h.sim.RunUntil(h.sim.Now() + sim::Millis(10));  // the link is back

  // Move the stale primary of stripe 0 onto shard 2.
  auto done = coordinator.MigrateRange(0, 2, 0, 1);
  ASSERT_TRUE(Await(h, done));
  ASSERT_TRUE(done.Get());

  h.client.RefreshMap();
  ASSERT_EQ(h.client.local_map().ShardIndexForStripe(0), 2);
  std::vector<uint8_t> in(bytes, 0);
  auto read = session->Read(0, kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, read) && read.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), v2.data(), in.size()), 0)
      << "the read must not return the bytes from before the write";
}

TEST(MigrationTest, SecondBatchWhileBusyIsRefusedWithoutLeakingSlots) {
  ClusterHarness h(MobileOptions(2, 1, /*migration_slots=*/8));
  MigrationCoordinator coordinator(h.cluster, h.net);

  auto first = coordinator.MigrateRange(0, 1, 0, 1);
  EXPECT_TRUE(coordinator.busy());
  auto second = coordinator.MigrateRange(0, 1, 2, 1);

  ASSERT_TRUE(Await(h, second));
  EXPECT_FALSE(second.Get()) << "one batch at a time";
  ASSERT_TRUE(Await(h, first));
  EXPECT_TRUE(first.Get());
  EXPECT_EQ(coordinator.stats().migrations_started, 1);
  EXPECT_EQ(coordinator.stats().migrations_committed, 1);
  // Only the committed batch's override holds a landing slot; the
  // refused plan's reservation was released.
  EXPECT_EQ(h.cluster.shard_map().num_overrides(), 1u);
  EXPECT_EQ(h.cluster.shard_map().FreeMigrationSlots(1), 7u);

  // The coordinator is reusable once idle.
  auto third = coordinator.MigrateRange(0, 1, 2, 1);
  ASSERT_TRUE(Await(h, third));
  EXPECT_TRUE(third.Get());
}

TEST(MigrationTest, CopyFailureAbortsAndTheSourceStaysAuthoritative) {
  ClusterHarness h(MobileOptions(2));
  // Every copy write to the target fails for the whole test window.
  sim::FaultPlan plan(h.sim, 17);
  h.cluster.server(1).SetFaultPlan(&plan);
  plan.ScheduleWindow(sim::FaultKind::kServerDeviceError, sim::Micros(1),
                      sim::Seconds(30));
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  // Seed only stripe 0 (shard 0) -- shard 1 is the faulty target.
  const auto data = Pattern(kStripeSectors * core::kSectorBytes, 23);
  auto write = session->Write(0, kStripeSectors,
                              const_cast<uint8_t*>(data.data()));
  ASSERT_TRUE(Await(h, write) && write.Get().ok());

  auto done = coordinator.MigrateRange(0, 1, 0, 1);
  ASSERT_TRUE(Await(h, done));
  EXPECT_FALSE(done.Get());
  EXPECT_EQ(coordinator.stats().migrations_aborted, 1);
  EXPECT_EQ(coordinator.stats().migrations_committed, 0);
  // Abort is invisible: no epoch bump, no overrides, no gates, every
  // landing slot free -- and the source still serves current data.
  EXPECT_EQ(h.cluster.shard_map().epoch(), 0u);
  EXPECT_EQ(h.cluster.shard_map().num_overrides(), 0u);
  EXPECT_EQ(h.cluster.shard_map().FreeMigrationSlots(1), 8u);
  EXPECT_FALSE(h.cluster.server(0).HasRangeGates());

  std::vector<uint8_t> in(data.size(), 0);
  auto read = session->Read(0, kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, read) && read.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), data.data(), in.size()), 0);
}

TEST(MigrationTest, EmptyPlanResolvesFalseImmediately) {
  ClusterHarness h(MobileOptions(2));
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto none = coordinator.MigrateAssignments({});
  ASSERT_TRUE(Await(h, none));
  EXPECT_FALSE(none.Get());
  EXPECT_FALSE(coordinator.busy());
  EXPECT_EQ(coordinator.stats().migrations_started, 0);
}

// Idle cluster, shrink-happy thresholds: the autoscaler packs the hot
// range onto the floor-size prefix through live migrations, and the
// data written before the resize survives byte-exact.
TEST(MigrationTest, AutoscalerShrinksIdleClusterToFloorAndKeepsData) {
  ClusterHarness h(MobileOptions(3, 1, /*migration_slots=*/32));
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  const uint64_t kHotStripes = 6;
  const auto data =
      Pattern(kHotStripes * kStripeSectors * core::kSectorBytes, 29);
  auto write =
      session->Write(0, static_cast<uint32_t>(kHotStripes * kStripeSectors),
                     const_cast<uint8_t*>(data.data()));
  ASSERT_TRUE(Await(h, write) && write.Get().ok());

  ClusterControlPlane::AutoscalerOptions aopts;
  aopts.period = sim::Millis(1);
  aopts.high_utilization = 2.0;  // unreachable: never grow
  aopts.low_utilization = 2.0;   // idle always reads as underloaded
  aopts.hot_first_stripe = 0;
  aopts.hot_stripes = kHotStripes;
  ClusterControlPlane& cp = h.cluster.control_plane();
  EXPECT_EQ(cp.active_shards(), 0) << "no autoscaler, no active set yet";
  cp.StartAutoscaler(coordinator, aopts);

  ASSERT_TRUE(h.RunUntilReady(
      [&] { return cp.active_shards() == 1 && !coordinator.busy(); },
      sim::Seconds(5)));
  cp.StopAutoscaler();
  EXPECT_GE(cp.autoscaler_stats().shrink_events, 2);
  EXPECT_GE(cp.autoscaler_stats().rebalances, 1);
  EXPECT_GT(h.cluster.shard_map().epoch(), 0u);
  for (uint64_t s = 0; s < kHotStripes; ++s) {
    EXPECT_EQ(h.cluster.shard_map().ShardIndexForStripe(s), 0)
        << "hot stripe " << s << " not packed onto the active prefix";
  }

  h.client.RefreshMap();
  std::vector<uint8_t> in(data.size(), 0);
  auto read =
      session->Read(0, static_cast<uint32_t>(kHotStripes * kStripeSectors),
                    in.data());
  ASSERT_TRUE(Await(h, read) && read.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), data.data(), in.size()), 0);
}

// With replication the active set must never drop below R: every hot
// stripe keeps R placements on R distinct shards.
TEST(MigrationTest, AutoscalerShrinkRespectsTheReplicationFloor) {
  ClusterHarness h(MobileOptions(3, /*replication=*/2,
                                 /*migration_slots=*/32));
  MigrationCoordinator coordinator(h.cluster, h.net);

  ClusterControlPlane::AutoscalerOptions aopts;
  aopts.period = sim::Millis(1);
  aopts.high_utilization = 2.0;
  aopts.low_utilization = 2.0;
  aopts.hot_stripes = 6;
  ClusterControlPlane& cp = h.cluster.control_plane();
  cp.StartAutoscaler(coordinator, aopts);

  ASSERT_TRUE(h.RunUntilReady(
      [&] { return cp.active_shards() == 2 && !coordinator.busy(); },
      sim::Seconds(5)));
  // Give the loop more periods: it must hold at the floor.
  h.sim.RunUntil(h.sim.Now() + sim::Millis(20));
  cp.StopAutoscaler();
  EXPECT_EQ(cp.active_shards(), 2);
  for (uint64_t s = 0; s < 6; ++s) {
    const auto targets = h.cluster.shard_map().ReplicasForStripe(s);
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_NE(targets[0].shard_index, targets[1].shard_index);
    EXPECT_LT(targets[0].shard_index, 2);
    EXPECT_LT(targets[1].shard_index, 2);
  }
}

// Shrink when idle, then grow back under real load: the full elastic
// round trip, all placement changes riding live migrations.
TEST(MigrationTest, AutoscalerGrowsBackUnderLoad) {
  ClusterHarness h(MobileOptions(3, 1, /*migration_slots=*/32));
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  ClusterControlPlane::AutoscalerOptions aopts;
  aopts.period = sim::Millis(1);
  aopts.high_utilization = 0.05;
  aopts.low_utilization = 0.02;
  aopts.hot_stripes = 6;
  ClusterControlPlane& cp = h.cluster.control_plane();
  cp.StartAutoscaler(coordinator, aopts);

  ASSERT_TRUE(h.RunUntilReady(
      [&] { return cp.active_shards() == 1 && !coordinator.busy(); },
      sim::Seconds(5)));

  client::LoadGenSpec spec;
  spec.read_fraction = 0.7;
  spec.queue_depth = 32;
  spec.stop_after_ops = 30000;
  client::LoadGenerator gen(h.sim, *session, spec);
  gen.Run(0, 0);
  ASSERT_TRUE(h.RunUntilReady([&] { return cp.active_shards() >= 2; },
                              sim::Seconds(10)))
      << "sustained load must grow the active set";
  EXPECT_GE(cp.autoscaler_stats().grow_events, 1);
  EXPECT_GE(cp.autoscaler_stats().shrink_events, 1);
  // Drain the workload (and any in-flight rebalance) before teardown.
  ASSERT_TRUE(h.RunUntilReady([&] { return gen.Done().Ready(); },
                              sim::Seconds(60)));
  cp.StopAutoscaler();
  ASSERT_TRUE(h.RunUntilReady([&] { return !coordinator.busy(); },
                              sim::Seconds(5)));
  EXPECT_EQ(gen.read_errors() + gen.write_errors(), 0)
      << "scaling must be hitless for the workload";
}

// Load rises to a peak and falls back. The fleet grows for the peak
// and must shed servers again on the way down, while every shard still
// sits well above the low mark: summed, the falling load fits on fewer
// shards long before any one shard looks idle.
TEST(MigrationTest, AutoscalerShedsServersAsLoadFallsAfterAPeak) {
  ClusterHarness h(MobileOptions(3, 1, /*migration_slots=*/32));
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);

  ClusterControlPlane::AutoscalerOptions aopts;
  aopts.period = sim::Millis(1);
  aopts.high_utilization = 0.12;
  aopts.low_utilization = 0.02;
  aopts.hot_stripes = 6;
  ClusterControlPlane& cp = h.cluster.control_plane();
  cp.StartAutoscaler(coordinator, aopts);

  // 20K ops/s, a ramp to a 150K peak at 40 ms, and back down to 30K by
  // 80 ms, held to the end.
  constexpr sim::TimeNs kPeak = sim::Millis(40);
  constexpr sim::TimeNs kEvening = sim::Millis(80);
  constexpr sim::TimeNs kEnd = sim::Millis(200);
  client::LoadGenSpec spec;
  spec.read_fraction = 0.95;
  spec.queue_depth = 64;
  spec.lba_span_sectors = 6 * kStripeSectors;
  spec.rate_at = [](sim::TimeNs t) {
    if (t < kPeak) return 20e3 + 130e3 * static_cast<double>(t) / kPeak;
    if (t < kEvening) {
      return 150e3 - 120e3 * static_cast<double>(t - kPeak) /
                         static_cast<double>(kEvening - kPeak);
    }
    return 30e3;
  };
  client::LoadGenerator load(h.sim, *session, spec);
  load.Run(0, kEnd);

  int peak_active = 0;
  while (h.sim.Now() < kEvening) {
    h.sim.RunUntil(h.sim.Now() + sim::Millis(1));
    peak_active = std::max(peak_active, cp.active_shards());
  }
  EXPECT_EQ(peak_active, 3) << "the peak must grow the fleet to every shard";
  const int64_t shrinks_before = cp.autoscaler_stats().shrink_events;
  ASSERT_TRUE(h.RunUntilReady([&] { return load.Done().Ready(); }));
  cp.StopAutoscaler();
  ASSERT_TRUE(h.RunUntilReady([&] { return !coordinator.busy(); }));
  EXPECT_GT(cp.autoscaler_stats().shrink_events, shrinks_before)
      << "falling load after the peak must shed servers";
  EXPECT_LT(cp.active_shards(), 3);
  EXPECT_EQ(load.read_errors() + load.write_errors(), 0);
}

// The diurnal crash shape. A backlogged latency-critical tenant holding
// the source's whole token budget leaves the best-effort copy tenant
// nothing, so every copy read sits in the source's QoS queue past its
// timeout and is retransmitted, and the batch aborts with those reads
// still queued. They reach the device only once the load stops, after
// the copy buffer is gone; payloads carried by value make that
// harmless (ASan checks it). A later batch then copies the stripe
// intact.
TEST(MigrationTest, CopyReadsHeldPastTheirTimeoutAbortThenRetryCleanly) {
  ClusterHarness h(MobileOptions(2));
  MigrationCoordinator coordinator(h.cluster, h.net);
  auto session = h.client.OpenSession(SloSpec{}, TenantClass::kBestEffort);
  ASSERT_NE(session, nullptr);
  const auto data = Pattern(kStripeSectors * core::kSectorBytes, 31);
  auto write = session->Write(0, kStripeSectors,
                              const_cast<uint8_t*>(data.data()));
  ASSERT_TRUE(Await(h, write) && write.Get().ok());

  // The hog's SLO reserves every token the source can sell; a mixed
  // read/write load keeps reads at full price, so it never has spare
  // tokens to donate.
  core::ReflexServer& source = h.cluster.server(0);
  SloSpec slo = testing::LcSlo(1, 0.9);
  slo.iops = static_cast<uint32_t>(
      source.calibration().MaxTokenRateForSlo(slo.latency) /
      source.cost_model().TokenRateForSlo(slo));
  core::Tenant* hog =
      source.RegisterTenant(slo, TenantClass::kLatencyCritical);
  ASSERT_NE(hog, nullptr);
  client::ReflexClient hog_client(h.sim, source, h.net.AddMachine("hog"),
                                  client::ReflexClient::Options{});
  auto hog_session = hog_client.AttachSession(hog->handle());
  ASSERT_NE(hog_session, nullptr);
  client::LoadGenSpec spec;
  spec.read_fraction = slo.read_fraction;
  spec.offered_iops = 1.2 * slo.iops;
  spec.lba_offset = 4096;
  spec.lba_span_sectors = 4096;
  client::LoadGenerator hog_load(h.sim, *hog_session, spec);
  const sim::TimeNs load_end = h.sim.Now() + sim::Millis(60);
  hog_load.Run(h.sim.Now(), load_end);
  // Let the backlog build and drain the spare-token bucket first.
  h.sim.RunUntil(h.sim.Now() + sim::Millis(5));

  auto aborted = coordinator.MigrateRange(0, 1, 0, 1);
  ASSERT_TRUE(Await(h, aborted));
  EXPECT_FALSE(aborted.Get()) << "every copy read outlived its retries";
  EXPECT_LT(h.sim.Now(), load_end) << "aborted while the reads were held";
  EXPECT_GT(coordinator.stats().copy_ios, 1) << "the copy read was retried";
  EXPECT_EQ(h.cluster.shard_map().epoch(), 0u);

  // The held reads drain to the device once the load stops.
  ASSERT_TRUE(h.RunUntilReady([&] { return hog_load.Done().Ready(); }));
  h.sim.RunUntil(h.sim.Now() + sim::Millis(10));
  const uint32_t own = session->shard_session(0).handle();
  int64_t copy_reads_served = 0;
  for (const core::Tenant* t : source.tenants()) {
    if (!t->IsLatencyCritical() && t->handle() != own) {
      copy_reads_served += t->completed_reads;
    }
  }
  EXPECT_GE(copy_reads_served, 2)
      << "the held copy reads reached the device after the abort";

  auto moved = coordinator.MigrateRange(0, 1, 0, 1);
  ASSERT_TRUE(Await(h, moved));
  EXPECT_TRUE(moved.Get());
  h.client.RefreshMap();
  std::vector<uint8_t> in(data.size(), 0);
  auto read = session->Read(0, kStripeSectors, in.data());
  ASSERT_TRUE(Await(h, read) && read.Get().ok());
  EXPECT_EQ(std::memcmp(in.data(), data.data(), in.size()), 0);
}

}  // namespace
}  // namespace reflex
