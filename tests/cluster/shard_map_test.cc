#include "cluster/shard_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/random.h"

namespace reflex {
namespace {

using cluster::ShardExtent;
using cluster::ShardMap;
using cluster::ShardMapOptions;
using cluster::ShardSplit;

ShardMap MakeMap(int num_shards, uint32_t stripe_sectors = 8,
                 uint64_t capacity_sectors = 1 << 20) {
  ShardMapOptions options;
  options.stripe_sectors = stripe_sectors;
  ShardMap map(options);
  for (int i = 0; i < num_shards; ++i) {
    map.AddShard(static_cast<uint32_t>(i), capacity_sectors);
  }
  return map;
}

ShardSplit SplitOf(const ShardMap& map, uint64_t lba, uint32_t sectors) {
  ShardSplit split;
  map.Split(lba, sectors, &split);
  return split;
}

TEST(ShardMapTest, StripedRoutingIsRoundRobinWithDenseShardLbas) {
  ShardMap map = MakeMap(4, /*stripe_sectors=*/8);
  // Stripe s lives on shard s % 4 at dense shard LBA (s / 4) * 8.
  for (uint64_t stripe = 0; stripe < 64; ++stripe) {
    EXPECT_EQ(map.ShardIndexForStripe(stripe),
              static_cast<int>(stripe % 4));
    auto extents = SplitOf(map, stripe * 8, 8);
    ASSERT_EQ(extents.size(), 1u);
    EXPECT_EQ(extents.Primary(extents[0]).shard_index,
              static_cast<int>(stripe % 4));
    EXPECT_EQ(extents.Primary(extents[0]).shard_lba, (stripe / 4) * 8);
    EXPECT_EQ(extents[0].sectors, 8u);
    EXPECT_EQ(extents[0].buffer_offset_sectors, 0u);
  }
}

TEST(ShardMapTest, BoundaryCrossingIoSplitsWithExactBufferOffsets) {
  ShardMap map = MakeMap(4, /*stripe_sectors=*/8);
  // [4, 20): tail of stripe 0 (shard 0), all of stripe 1 (shard 1),
  // head of stripe 2 (shard 2).
  auto extents = SplitOf(map, 4, 16);
  ASSERT_EQ(extents.size(), 3u);

  EXPECT_EQ(extents.Primary(extents[0]).shard_index, 0);
  EXPECT_EQ(extents.Primary(extents[0]).shard_lba, 4u);
  EXPECT_EQ(extents[0].sectors, 4u);
  EXPECT_EQ(extents[0].buffer_offset_sectors, 0u);

  EXPECT_EQ(extents.Primary(extents[1]).shard_index, 1);
  EXPECT_EQ(extents.Primary(extents[1]).shard_lba, 0u);
  EXPECT_EQ(extents[1].sectors, 8u);
  EXPECT_EQ(extents[1].buffer_offset_sectors, 4u);

  EXPECT_EQ(extents.Primary(extents[2]).shard_index, 2);
  EXPECT_EQ(extents.Primary(extents[2]).shard_lba, 0u);
  EXPECT_EQ(extents[2].sectors, 4u);
  EXPECT_EQ(extents[2].buffer_offset_sectors, 12u);
}

TEST(ShardMapTest, SingleShardMergesEverythingIntoOneExtent) {
  ShardMap map = MakeMap(1, /*stripe_sectors=*/8);
  // Every stripe lands on shard 0 contiguously, so the per-stripe runs
  // merge back into a single extent.
  auto extents = SplitOf(map, 3, 1000);
  ASSERT_EQ(extents.size(), 1u);
  EXPECT_EQ(extents.Primary(extents[0]).shard_lba, 3u);
  EXPECT_EQ(extents[0].sectors, 1000u);
}

TEST(ShardMapTest, CapacityFollowsPlacement) {
  // 4 shards x 100 whole stripes of 8 sectors each; the 7-sector
  // remainder of each shard is unusable.
  ShardMap map = MakeMap(4, 8, 807);
  EXPECT_EQ(map.capacity_sectors(), 4u * 100u * 8u);
}

TEST(ShardMapTest, RoutingStableUnderShardAddOrder) {
  ShardMapOptions options;
  options.stripe_sectors = 8;
  ShardMap forward(options);
  ShardMap shuffled(options);
  for (uint32_t id : {0u, 1u, 2u, 3u, 4u}) forward.AddShard(id, 1 << 20);
  for (uint32_t id : {3u, 0u, 4u, 2u, 1u}) shuffled.AddShard(id, 1 << 20);

  sim::Rng rng(7, "add_order");
  for (int trial = 0; trial < 500; ++trial) {
    const uint64_t lba = static_cast<uint64_t>(rng.NextBounded(100000));
    const uint32_t sectors = static_cast<uint32_t>(rng.NextInRange(1, 200));
    const auto a = SplitOf(forward, lba, sectors);
    const auto b = SplitOf(shuffled, lba, sectors);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.Primary(a[i]).shard_id, b.Primary(b[i]).shard_id);
      EXPECT_EQ(a.Primary(a[i]).shard_lba, b.Primary(b[i]).shard_lba);
      EXPECT_EQ(a[i].sectors, b[i].sectors);
      EXPECT_EQ(a[i].buffer_offset_sectors, b[i].buffer_offset_sectors);
    }
  }
}

TEST(ShardMapTest, IoEndingExactlyOnLastSectorIsServed) {
  // 4 shards x (1<<20) sectors, stripe 8 => volume of 1<<22 sectors.
  ShardMap map = MakeMap(4, /*stripe_sectors=*/8);
  const uint64_t capacity = map.capacity_sectors();
  ASSERT_EQ(capacity, uint64_t{1} << 22);

  // The final stripe, and the single last sector, route like any other.
  auto last_stripe = SplitOf(map, capacity - 8, 8);
  ASSERT_EQ(last_stripe.size(), 1u);
  EXPECT_EQ(last_stripe[0].sectors, 8u);

  auto last_sector = SplitOf(map, capacity - 1, 1);
  ASSERT_EQ(last_sector.size(), 1u);
  EXPECT_EQ(last_sector[0].sectors, 1u);
  EXPECT_EQ(last_sector.Primary(last_sector[0]).shard_index,
            map.ShardIndexForStripe(capacity / 8 - 1));

  // A request crossing a boundary but ending exactly at capacity.
  auto tail = SplitOf(map, capacity - 12, 12);
  uint32_t total = 0;
  for (const ShardExtent& e : tail) total += e.sectors;
  EXPECT_EQ(total, 12u);
}

TEST(ShardMapTest, ZeroSectorRequestYieldsNoExtents) {
  ShardMap map = MakeMap(4, /*stripe_sectors=*/8);
  EXPECT_TRUE(SplitOf(map, 0, 0).empty());
  EXPECT_TRUE(SplitOf(map, 17, 0).empty());
  // Even at the very end of the volume: lba + 0 == capacity is not out
  // of range.
  EXPECT_TRUE(SplitOf(map, map.capacity_sectors(), 0).empty());
}

TEST(ShardMapTest, SingleRequestCanSpanEveryShard) {
  const int kShards = 4;
  ShardMap map = MakeMap(kShards, /*stripe_sectors=*/8);
  // [0, 32) covers stripes 0..3, one on each of the 4 shards.
  auto extents = SplitOf(map, 0, 32);
  ASSERT_EQ(extents.size(), 4u);
  std::vector<bool> seen(kShards, false);
  for (int i = 0; i < kShards; ++i) {
    EXPECT_EQ(extents.Primary(extents[i]).shard_index, i);
    EXPECT_EQ(extents[i].sectors, 8u);
    EXPECT_EQ(extents[i].buffer_offset_sectors,
              static_cast<uint32_t>(i) * 8u);
    seen[extents.Primary(extents[i]).shard_index] = true;
  }
  for (int i = 0; i < kShards; ++i) EXPECT_TRUE(seen[i]);
}

TEST(ShardMapTest, MergeNeverReordersExtents) {
  // One shard merges consecutive stripes; several ping-pong between
  // shards. Either way the extents must stay in logical order with
  // monotonically increasing buffer offsets -- reassembly depends on
  // it.
  sim::Rng rng(123, "merge_order");
  for (int shards : {1, 2, 5}) {
    ShardMap map = MakeMap(shards, /*stripe_sectors=*/4);
    for (int trial = 0; trial < 500; ++trial) {
      const uint64_t lba = rng.NextBounded(1 << 16);
      const uint32_t sectors =
          static_cast<uint32_t>(rng.NextInRange(1, 64));
      uint32_t next_offset = 0;
      for (const ShardExtent& e : SplitOf(map, lba, sectors)) {
        ASSERT_EQ(e.buffer_offset_sectors, next_offset)
            << "extents out of order or overlapping";
        next_offset += e.sectors;
      }
      ASSERT_EQ(next_offset, sectors);
    }
  }
}

/**
 * Property: for random (lba, sectors), the extents exactly tile the
 * logical range -- in order, no gaps or overlaps -- and every sector's
 * shard/LBA agrees with independent per-sector routing math.
 */
TEST(ShardMapTest, PropertySplitTilesLogicalRangeExactly) {
  sim::Rng rng(99, "split_property");
  ShardMap map = MakeMap(5, /*stripe_sectors=*/16);
  for (int trial = 0; trial < 2000; ++trial) {
    const uint64_t lba = rng.NextBounded(1 << 18);
    const uint32_t sectors = static_cast<uint32_t>(rng.NextInRange(1, 300));
    const auto extents = SplitOf(map, lba, sectors);

    uint64_t logical = lba;
    uint32_t buffer = 0;
    for (const ShardExtent& e : extents) {
      ASSERT_GT(e.sectors, 0u);
      ASSERT_EQ(e.buffer_offset_sectors, buffer);
      // Check each sector of the extent against per-stripe routing.
      for (uint32_t k = 0; k < e.sectors; ++k) {
        const uint64_t cur = logical + k;
        const uint64_t stripe = cur / 16;
        const uint32_t within = static_cast<uint32_t>(cur % 16);
        ASSERT_EQ(map.ShardIndexForStripe(stripe),
                  extents.Primary(e).shard_index);
        ASSERT_EQ(extents.Primary(e).shard_lba + k,
                  (stripe / 5) * 16 + within);
      }
      logical += e.sectors;
      buffer += e.sectors;
    }
    ASSERT_EQ(logical, lba + sectors);
    ASSERT_EQ(buffer, sectors);
  }
}

// Pins capacity_sectors() (an O(1) cached value recomputed by
// AddShard -- Split consults it per request on the cluster hot path):
// it must track the shard set exactly as an on-demand min-scan would,
// including uneven capacities.
TEST(ShardMapTest, CapacityTracksShardSetAcrossAdds) {
  ShardMapOptions options;
  options.stripe_sectors = 8;
  ShardMap map(options);
  EXPECT_EQ(map.capacity_sectors(), 0u) << "no shards, no capacity";

  // Uneven capacities: the smallest shard bounds the whole-stripe
  // count each shard contributes. 100 sectors -> 12 stripes of 8.
  map.AddShard(3, 100);
  EXPECT_EQ(map.capacity_sectors(), 12u * 8u);
  map.AddShard(1, 256);  // smaller id, larger capacity: still 12 stripes
  EXPECT_EQ(map.capacity_sectors(), 2u * 12u * 8u);
  map.AddShard(2, 64);  // new smallest: 8 stripes per shard
  EXPECT_EQ(map.capacity_sectors(), 3u * 8u * 8u);
  map.AddShard(4, 1 << 20);
  EXPECT_EQ(map.capacity_sectors(), 4u * 8u * 8u)
      << "a large shard adds only the smallest shard's stripe count";

  // Split still enforces the bound at the cached capacity's edge.
  EXPECT_FALSE(SplitOf(map, 4 * 8 * 8 - 8, 8).empty());
  EXPECT_TRUE(SplitOf(map, 4 * 8 * 8, 0).empty());
}

}  // namespace
}  // namespace reflex
