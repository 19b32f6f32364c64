#ifndef REFLEX_CLUSTER_SHARD_MAP_H_
#define REFLEX_CLUSTER_SHARD_MAP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

namespace reflex::cluster {

struct ShardMapOptions {
  /** Stripe unit in 512B sectors (default 64KB). */
  uint32_t stripe_sectors = 128;

  /**
   * Copies of every stripe (RAIN-style): one primary plus R-1
   * replicas, clamped to the shard count. R=1 reproduces the
   * unreplicated map bit-for-bit -- identical shard LBAs, identical
   * capacity, empty replica lists.
   */
  int replication = 1;

  /**
   * Stripe-slots reserved at the top of every shard's address space as
   * landing space for live migration: a stripe moved onto a shard that
   * is not its base placement lands in one of these slots. Shrinks the
   * logical volume by `migration_slots` stripes per shard. 0 -- the
   * default -- reserves nothing and reproduces the immobile map
   * bit-for-bit.
   */
  uint32_t migration_slots = 0;
};

/**
 * One placement of a stripe range on one shard: which shard, and the
 * LBA in that shard's address space.
 */
struct ReplicaTarget {
  int shard_index = 0;
  uint32_t shard_id = 0;
  uint64_t shard_lba = 0;
};

/**
 * One planned stripe move: replica ordinal `ordinal` of `stripe`
 * relocates from its current placement to a new one. Produced by
 * PlanStripeMoves / PlanRangeMigration (which also reserves the
 * destination slot) and consumed by CommitMigration / AbortMigration.
 */
struct MigrationAssignment {
  uint64_t stripe = 0;
  int ordinal = 0;  // 0 = primary, 1..R-1 = replicas
  /** Current placement (base or a previously-committed override). */
  ReplicaTarget from;
  /** Destination: a reserved migration slot, or the base placement
   * when the stripe is moving back home. */
  ReplicaTarget to;
  /** True when `to` is the stripe's base placement (commit removes
   * the override instead of installing one). */
  bool to_is_base = false;
  /** True when `from` is an override whose slot frees on commit. */
  bool from_is_override = false;
};

/**
 * One shard-local piece of a logical I/O: its length, where its payload
 * sits in the caller's buffer (so scatter-gather reassembly is
 * byte-exact), and which run of its ShardSplit's placements serves it.
 */
struct ShardExtent {
  uint32_t sectors = 0;
  /** Offset of this extent's payload in the logical I/O's buffer. */
  uint32_t buffer_offset_sectors = 0;
  /** Index of the extent's primary in its ShardSplit's flat run of
   * placements (see ShardSplit::Targets). */
  uint32_t first_target = 0;
};

/**
 * ShardMap::Split's output, in storage the caller owns: per-shard
 * extents in logical-LBA order over one flat run of placements, R per
 * extent, primary first. Each placement holds the extent's `sectors`
 * run from its own shard_lba; writes go to all R, reads may be steered
 * to any. Split() refills it, and a reused ShardSplit keeps its
 * capacity, so splitting a request allocates nothing once warm.
 */
class ShardSplit {
 public:
  size_t size() const { return extents_.size(); }
  bool empty() const { return extents_.empty(); }
  const ShardExtent& operator[](size_t i) const { return extents_[i]; }
  std::vector<ShardExtent>::const_iterator begin() const {
    return extents_.begin();
  }
  std::vector<ShardExtent>::const_iterator end() const {
    return extents_.end();
  }

  /** Placements per extent (the map's effective replication). */
  size_t replication() const { return replication_; }

  /** All R placements of `e`, primary first. */
  std::span<const ReplicaTarget> Targets(const ShardExtent& e) const {
    return {targets_.data() + e.first_target, replication_};
  }
  const ReplicaTarget& Primary(const ShardExtent& e) const {
    return targets_[e.first_target];
  }

 private:
  friend class ShardMap;
  std::vector<ShardExtent> extents_;
  std::vector<ReplicaTarget> targets_;
  size_t replication_ = 1;
};

/**
 * Deterministic placement of a logical volume across N shards at
 * stripe granularity. One rule: stripe s lives on shard (s mod N) at
 * dense shard LBAs, except where a committed migration override
 * relocates one of its placements. Pure routing math -- no I/O, no
 * simulation state -- so clients and the control plane can share one
 * instance and tests can exercise it exhaustively.
 *
 * Shards are kept sorted by id: the map computed from any insertion
 * order is identical, which is what makes independently-constructed
 * clients agree on placement.
 */
class ShardMap {
 public:
  explicit ShardMap(ShardMapOptions options = ShardMapOptions());

  /** Adds a shard (ids must be unique; any insertion order). */
  void AddShard(uint32_t shard_id, uint64_t capacity_sectors);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  uint32_t shard_id(int index) const { return shards_[index].id; }
  const ShardMapOptions& options() const { return options_; }

  /**
   * Logical volume capacity: every shard contributes the same whole
   * number of stripes (bounded by the smallest shard). O(1):
   * recomputed eagerly by AddShard, not on each call -- Split checks
   * it per request on the cluster hot path.
   */
  uint64_t capacity_sectors() const { return capacity_cache_; }

  /** Effective replication factor: options().replication clamped to
   * the shard count (always >= 1 once a shard exists). */
  int replication() const;

  /** Shard index serving logical stripe `stripe` (the primary). */
  int ShardIndexForStripe(uint64_t stripe) const;

  /**
   * All R placements of logical stripe `stripe`, primary first, with
   * shard LBAs of the stripe's first sector. The base map puts
   * replica ordinal k on shard (stripe + k) mod N, each shard packing
   * its R-way slots densely; committed migration overrides replace
   * individual ordinals.
   */
  std::vector<ReplicaTarget> ReplicasForStripe(uint64_t stripe) const;

  /**
   * Splits [lba, lba+sectors) into per-shard extents in `out`, in
   * logical-LBA order, merging adjacent runs whose every placement
   * continues contiguously on the same shard. A single-stripe I/O
   * yields exactly one extent; a zero-sector request yields none.
   * Allocates nothing once `out` has grown to the request's size.
   */
  void Split(uint64_t lba, uint32_t sectors, ShardSplit* out) const;

  // --- Live migration (DESIGN.md section 17) ---

  /**
   * Map epoch: bumped once per committed migration batch. Clients
   * stamp requests with the epoch of the map copy that routed them;
   * a moved range rejects pre-cutover epochs with kWrongShard.
   */
  uint64_t epoch() const { return epoch_; }

  /** Stripes in the logical volume. */
  uint64_t num_stripes() const {
    return capacity_cache_ / options_.stripe_sectors;
  }

  /** Committed placement overrides currently in effect. */
  size_t num_overrides() const { return overrides_.size(); }

  /** Free migration landing slots on shard `shard_index`. */
  uint32_t FreeMigrationSlots(int shard_index) const;

  /** Desired placement of one replica ordinal (PlanStripeMoves input). */
  struct StripeMove {
    uint64_t stripe = 0;
    int ordinal = 0;
    int target_shard_index = 0;
  };

  /**
   * Plans a batch of stripe moves: resolves current placements,
   * reserves destination slots (or targets the base placement when a
   * stripe moves back home) and returns the assignments to copy.
   * Moves that are no-ops, would co-locate two replicas of one stripe,
   * or find no free landing slot are skipped -- the plan is always
   * safe to commit. Reserved slots are held until CommitMigration or
   * AbortMigration.
   */
  std::vector<MigrationAssignment> PlanStripeMoves(
      const std::vector<StripeMove>& desired);

  /**
   * Plans the evacuation of every placement that stripe range
   * [first_stripe, first_stripe+stripe_count) has on shard
   * `source_index` over to shard `target_index`.
   */
  std::vector<MigrationAssignment> PlanRangeMigration(int source_index,
                                                      int target_index,
                                                      uint64_t first_stripe,
                                                      uint64_t stripe_count);

  /**
   * Atomically installs a planned batch: overrides flip (or clear, for
   * moves back to base), slots vacated by superseded overrides free,
   * and the epoch bumps exactly once. Callers must have copied the
   * data before committing.
   */
  void CommitMigration(const std::vector<MigrationAssignment>& assignments);

  /** Releases the slots a planned batch reserved; no epoch change. */
  void AbortMigration(const std::vector<MigrationAssignment>& assignments);

  /** A replica placement that lives on another shard than before. */
  struct PlacementMove {
    int from_shard = 0;
    int to_shard = 0;
  };

  /**
   * Every placement whose shard differs between `older` (an earlier
   * copy of this map over the same shards) and this map. Only override
   * entries can differ, so this diffs the two override tables and
   * never walks the stripes: a map with migration slots has hundreds
   * of millions of them.
   */
  std::vector<PlacementMove> MovesSince(const ShardMap& older) const;

 private:
  struct Shard {
    uint32_t id;
    uint64_t capacity_sectors;
    /** Occupancy of this shard's reserved migration landing slots. */
    std::vector<bool> migration_slot_used;
  };

  uint64_t ComputeCapacitySectors() const;

  /** Appends all R placements of `stripe` to `out`, primary first,
   * with `within` sectors of intra-stripe offset applied to every
   * shard LBA. Committed overrides are applied per ordinal. */
  void AppendTargets(uint64_t stripe, uint32_t within,
                     std::vector<ReplicaTarget>* out) const;

  /** AppendTargets ignoring overrides (the immobile base map). */
  void AppendBaseTargets(uint64_t stripe, uint32_t within,
                         std::vector<ReplicaTarget>* out) const;

  /** The base placements of `stripe` (within 0) as a new vector. */
  std::vector<ReplicaTarget> BaseTargets(uint64_t stripe) const;

  /** First shard-local LBA of `shard`'s reserved migration region. */
  uint64_t MigrationRegionBase(const Shard& shard) const;

  /** Reserves the lowest free landing slot; false if none free. */
  bool AllocMigrationSlot(int shard_index, uint64_t* slot_lba);
  void FreeMigrationSlot(int shard_index, uint64_t slot_lba);

  ShardMapOptions options_;
  std::vector<Shard> shards_;
  /** capacity_sectors() of the current shard set (0 when empty). */
  uint64_t capacity_cache_ = 0;

  uint64_t epoch_ = 0;
  /** Committed placement overrides, keyed (stripe, ordinal). */
  std::map<std::pair<uint64_t, int>, ReplicaTarget> overrides_;
};

}  // namespace reflex::cluster

#endif  // REFLEX_CLUSTER_SHARD_MAP_H_
