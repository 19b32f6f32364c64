// ShardMap live-migration property tests: plan / commit / abort never
// lose or double-map a sector -- across replication factors 1..3,
// range handoffs, moves back home, and randomized plan/commit/abort
// churn.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "cluster/shard_map.h"

namespace reflex {
namespace {

using cluster::MigrationAssignment;
using cluster::ReplicaTarget;
using cluster::ShardExtent;
using cluster::ShardMap;
using cluster::ShardMapOptions;
using cluster::ShardSplit;

constexpr uint32_t kStripeSectors = 8;

ShardMap MakeMap(int num_shards, int replication, uint32_t migration_slots,
                 uint64_t capacity = 4096) {
  ShardMapOptions options;
  options.stripe_sectors = kStripeSectors;
  options.replication = replication;
  options.migration_slots = migration_slots;
  ShardMap map(options);
  for (int i = 0; i < num_shards; ++i) {
    map.AddShard(static_cast<uint32_t>(100 + i), capacity);
  }
  return map;
}

uint32_t TotalFreeSlots(const ShardMap& map) {
  uint32_t total = 0;
  for (int i = 0; i < map.num_shards(); ++i) {
    total += map.FreeMigrationSlots(i);
  }
  return total;
}

/**
 * The "never lose, never double-map" invariant, checked after every
 * map mutation:
 *  - every stripe resolves to exactly R placements on R distinct
 *    shards, primary first, agreeing with ShardIndexForStripe;
 *  - no two placements anywhere in the volume share a (shard, lba)
 *    slot;
 *  - Split() routes each stripe to the same placements, and a
 *    full-volume Split covers every logical sector exactly once.
 */
void CheckMapIntegrity(const ShardMap& map) {
  const int r = map.replication();
  std::map<std::pair<int, uint64_t>, uint64_t> slot_owner;
  for (uint64_t s = 0; s < map.num_stripes(); ++s) {
    const std::vector<ReplicaTarget> targets = map.ReplicasForStripe(s);
    ASSERT_EQ(targets.size(), static_cast<size_t>(r)) << "stripe " << s;
    EXPECT_EQ(targets[0].shard_index, map.ShardIndexForStripe(s))
        << "stripe " << s;

    std::set<int> shards;
    for (const ReplicaTarget& t : targets) {
      EXPECT_TRUE(shards.insert(t.shard_index).second)
          << "stripe " << s << " co-locates two replicas on shard "
          << t.shard_index;
      const auto slot = std::make_pair(t.shard_index, t.shard_lba);
      const auto [it, inserted] = slot_owner.emplace(slot, s);
      EXPECT_TRUE(inserted)
          << "stripe " << s << " double-maps shard " << t.shard_index
          << " lba " << t.shard_lba << " (also owned by stripe "
          << it->second << ")";
    }

    ShardSplit split;
    map.Split(s * kStripeSectors, kStripeSectors, &split);
    ASSERT_EQ(split.size(), 1u) << "stripe " << s;
    EXPECT_EQ(split[0].sectors, kStripeSectors);
    const std::span<const ReplicaTarget> placed = split.Targets(split[0]);
    ASSERT_EQ(placed.size(), static_cast<size_t>(r));
    for (int k = 0; k < r; ++k) {
      EXPECT_EQ(placed[k].shard_index, targets[k].shard_index);
      EXPECT_EQ(placed[k].shard_lba, targets[k].shard_lba);
    }
  }

  uint64_t covered = 0;
  ShardSplit whole;
  map.Split(0, static_cast<uint32_t>(map.capacity_sectors()), &whole);
  for (const ShardExtent& e : whole) covered += e.sectors;
  EXPECT_EQ(covered, map.capacity_sectors()) << "full-volume split gap";
}

TEST(ShardMapMigrationTest, RangeHandoffNeverLosesOrDoubleMapsASector) {
  for (int r = 1; r <= 3; ++r) {
    SCOPED_TRACE(testing::Message() << "replication=" << r);
    ShardMap map = MakeMap(4, r, /*migration_slots=*/8);
    const uint64_t capacity = map.capacity_sectors();
    const uint32_t free0 = TotalFreeSlots(map);

    // Evacuate stripes [0, 16)'s placements from shard 0 to shard 1.
    // Moves that would co-locate two replicas of a stripe are
    // skipped by planning, so the plan covers what CAN move safely.
    std::vector<MigrationAssignment> plan =
        map.PlanRangeMigration(0, 1, 0, 16);
    ASSERT_FALSE(plan.empty());
    // Planning reserves slots but changes no routing.
    EXPECT_EQ(map.epoch(), 0u);
    EXPECT_EQ(map.num_overrides(), 0u);
    CheckMapIntegrity(map);

    map.CommitMigration(plan);
    EXPECT_EQ(map.epoch(), 1u);
    EXPECT_EQ(map.num_overrides(), plan.size());
    EXPECT_EQ(map.capacity_sectors(), capacity)
        << "a migration must never change the logical volume";
    EXPECT_EQ(TotalFreeSlots(map) + map.num_overrides(), free0)
        << "every committed override holds exactly one landing slot";
    for (const MigrationAssignment& a : plan) {
      const auto targets = map.ReplicasForStripe(a.stripe);
      EXPECT_NE(targets[static_cast<size_t>(a.ordinal)].shard_index, 0)
          << "stripe " << a.stripe << " ordinal " << a.ordinal
          << " still on the evacuated shard";
    }
    CheckMapIntegrity(map);

    // Move every relocated placement back home: overrides clear and
    // every landing slot frees.
    std::vector<ShardMap::StripeMove> home;
    for (const MigrationAssignment& a : plan) {
      home.push_back(
          ShardMap::StripeMove{a.stripe, a.ordinal, a.from.shard_index});
    }
    std::vector<MigrationAssignment> back = map.PlanStripeMoves(home);
    ASSERT_EQ(back.size(), plan.size());
    map.CommitMigration(back);
    EXPECT_EQ(map.epoch(), 2u);
    EXPECT_EQ(map.num_overrides(), 0u);
    EXPECT_EQ(TotalFreeSlots(map), free0);
    CheckMapIntegrity(map);
  }
}

TEST(ShardMapMigrationTest, AbortReleasesSlotsAndChangesNothing) {
  ShardMap map = MakeMap(4, 2, /*migration_slots=*/8);
  const uint32_t free0 = TotalFreeSlots(map);

  std::vector<MigrationAssignment> plan = map.PlanRangeMigration(0, 2, 0, 16);
  ASSERT_FALSE(plan.empty());
  EXPECT_LT(TotalFreeSlots(map), free0) << "planning reserves slots";

  map.AbortMigration(plan);
  EXPECT_EQ(map.epoch(), 0u);
  EXPECT_EQ(map.num_overrides(), 0u);
  EXPECT_EQ(TotalFreeSlots(map), free0);
  CheckMapIntegrity(map);
}

TEST(ShardMapMigrationTest, CommitBumpsTheEpochExactlyOncePerBatch) {
  ShardMap map = MakeMap(4, 1, /*migration_slots=*/8);
  std::vector<MigrationAssignment> plan = map.PlanRangeMigration(0, 1, 0, 8);
  ASSERT_GT(plan.size(), 1u) << "a multi-assignment batch";
  map.CommitMigration(plan);
  EXPECT_EQ(map.epoch(), 1u)
      << "one batch, one epoch bump, however many stripes moved";
}

TEST(ShardMapMigrationTest, ZeroSlotsReproducesTheImmobileMapAndPlansNothing) {
  ShardMap mobile = MakeMap(3, 2, /*migration_slots=*/0);
  ShardMap plain = MakeMap(3, 2, /*migration_slots=*/0);
  EXPECT_EQ(mobile.capacity_sectors(), plain.capacity_sectors());
  EXPECT_EQ(TotalFreeSlots(mobile), 0u);
  // No landing space: every move is skipped and the plan is empty.
  EXPECT_TRUE(mobile.PlanRangeMigration(0, 1, 0, 4).empty());
  EXPECT_EQ(mobile.epoch(), 0u);
  CheckMapIntegrity(mobile);
}

// Randomized churn: a seeded stream of stripe-move batches, each
// randomly committed or aborted, must preserve map integrity and slot
// accounting at every step, for R in {1,2,3}.
TEST(ShardMapMigrationTest, RandomizedMoveChurnKeepsIntegrity) {
  for (int r = 1; r <= 3; ++r) {
    SCOPED_TRACE(testing::Message() << "replication=" << r);
    ShardMap map = MakeMap(4, r, /*migration_slots=*/6);
    const uint32_t free0 = TotalFreeSlots(map);
    std::mt19937_64 rng(0xD15C0 + static_cast<uint64_t>(r) * 31);
    uint64_t expected_epoch = 0;

    for (int step = 0; step < 40; ++step) {
      std::vector<ShardMap::StripeMove> moves;
      const int batch = 1 + static_cast<int>(rng() % 4);
      for (int m = 0; m < batch; ++m) {
        moves.push_back(ShardMap::StripeMove{
            rng() % map.num_stripes(), static_cast<int>(rng() % r),
            static_cast<int>(rng() % 4)});
      }
      std::vector<MigrationAssignment> plan = map.PlanStripeMoves(moves);
      if (rng() % 2 == 0) {
        if (!plan.empty()) ++expected_epoch;
        map.CommitMigration(plan);
      } else {
        map.AbortMigration(plan);
      }
      ASSERT_EQ(map.epoch(), expected_epoch) << "step " << step;
      ASSERT_EQ(TotalFreeSlots(map) + map.num_overrides(), free0)
          << "step " << step << ": slot leak or double-free";
      CheckMapIntegrity(map);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace reflex
