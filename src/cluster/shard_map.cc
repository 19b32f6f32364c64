#include "cluster/shard_map.h"

#include <algorithm>

#include "sim/logging.h"

namespace reflex::cluster {

ShardMap::ShardMap(ShardMapOptions options) : options_(options) {
  REFLEX_CHECK(options_.stripe_sectors > 0);
  REFLEX_CHECK(options_.replication >= 1);
}

int ShardMap::replication() const {
  if (shards_.empty()) return 1;
  return std::min(options_.replication,
                  static_cast<int>(shards_.size()));
}

void ShardMap::AddShard(uint32_t shard_id, uint64_t capacity_sectors) {
  REFLEX_CHECK(capacity_sectors >= options_.stripe_sectors);
  for (const Shard& s : shards_) {
    REFLEX_CHECK(s.id != shard_id);
  }
  // Shards are added before any migration plans: overrides reference
  // shard indices, which inserting in the middle would shift.
  REFLEX_CHECK(overrides_.empty());
  Shard shard{shard_id, capacity_sectors,
              std::vector<bool>(options_.migration_slots, false)};
  // Sorted by id: the map is identical for any insertion order.
  const auto pos = std::upper_bound(
      shards_.begin(), shards_.end(), shard,
      [](const Shard& a, const Shard& b) { return a.id < b.id; });
  shards_.insert(pos, shard);
  capacity_cache_ = ComputeCapacitySectors();
  REFLEX_CHECK(capacity_cache_ > 0);
}

uint64_t ShardMap::ComputeCapacitySectors() const {
  if (shards_.empty()) return 0;
  uint64_t min_capacity = shards_[0].capacity_sectors;
  for (const Shard& s : shards_) {
    min_capacity = std::min(min_capacity, s.capacity_sectors);
  }
  // Migration landing slots come off the top of every shard before the
  // base map is laid out (migration_slots == 0 reserves nothing).
  const uint64_t raw_slots = min_capacity / options_.stripe_sectors;
  REFLEX_CHECK(raw_slots > options_.migration_slots);
  const uint64_t usable_slots = raw_slots - options_.migration_slots;
  // Each shard packs R-way replica slots densely, so R copies of every
  // stripe shrink the usable volume by a factor of R (exact at R=1:
  // slots == stripes).
  const uint64_t r = static_cast<uint64_t>(replication());
  const uint64_t slots_per_shard = usable_slots / r;
  return shards_.size() * slots_per_shard * options_.stripe_sectors;
}

int ShardMap::ShardIndexForStripe(uint64_t stripe) const {
  REFLEX_CHECK(!shards_.empty());
  // A committed migration override relocates the primary; the map
  // must keep answering "who serves this stripe" consistently with
  // ReplicasForStripe / Split.
  const auto it = overrides_.find({stripe, 0});
  if (it != overrides_.end()) return it->second.shard_index;
  return static_cast<int>(stripe % shards_.size());
}

void ShardMap::AppendTargets(uint64_t stripe, uint32_t within,
                             std::vector<ReplicaTarget>* out) const {
  const size_t first = out->size();
  AppendBaseTargets(stripe, within, out);
  if (overrides_.empty()) return;
  for (size_t k = 0; first + k < out->size(); ++k) {
    const auto it = overrides_.find({stripe, static_cast<int>(k)});
    if (it == overrides_.end()) continue;
    (*out)[first + k] =
        ReplicaTarget{it->second.shard_index, it->second.shard_id,
                      it->second.shard_lba + within};
  }
}

void ShardMap::AppendBaseTargets(uint64_t stripe, uint32_t within,
                                 std::vector<ReplicaTarget>* out) const {
  REFLEX_CHECK(!shards_.empty());
  const uint64_t n = shards_.size();
  const int r = replication();
  // Replica ordinal k of stripe s lives on shard (s + k) mod N, in that
  // shard's slot (s / N) at intra-slot position k. Slot index
  // (s/N)*R + k is unique per (shard, stripe, ordinal): two pairs
  // collide only if both the quotient and the ordinal agree, which
  // forces the same stripe.
  const uint64_t primary = stripe % n;
  const uint64_t slot_base =
      (stripe / n) * options_.stripe_sectors * static_cast<uint64_t>(r);
  for (int k = 0; k < r; ++k) {
    const size_t index =
        static_cast<size_t>((primary + static_cast<uint64_t>(k)) % n);
    out->push_back(ReplicaTarget{
        static_cast<int>(index), shards_[index].id,
        slot_base + static_cast<uint64_t>(k) * options_.stripe_sectors +
            within});
  }
}

std::vector<ReplicaTarget> ShardMap::BaseTargets(uint64_t stripe) const {
  std::vector<ReplicaTarget> out;
  AppendBaseTargets(stripe, /*within=*/0, &out);
  return out;
}

std::vector<ReplicaTarget> ShardMap::ReplicasForStripe(
    uint64_t stripe) const {
  std::vector<ReplicaTarget> out;
  AppendTargets(stripe, /*within=*/0, &out);
  return out;
}

void ShardMap::Split(uint64_t lba, uint32_t sectors, ShardSplit* out) const {
  out->extents_.clear();
  out->targets_.clear();
  out->replication_ = static_cast<size_t>(replication());
  // A zero-sector request touches no shard: it splits into no extents
  // (and so completes trivially) rather than tripping an assertion.
  if (sectors == 0) return;
  REFLEX_CHECK(sectors <= capacity_sectors() &&
               lba <= capacity_sectors() - sectors);
  const uint64_t stripe_sectors = options_.stripe_sectors;
  const size_t r = out->replication_;

  std::vector<ShardExtent>& extents = out->extents_;
  std::vector<ReplicaTarget>& targets = out->targets_;
  uint64_t cur = lba;
  uint32_t remaining = sectors;
  uint32_t buffer_offset = 0;
  while (remaining > 0) {
    const uint64_t stripe = cur / stripe_sectors;
    const uint32_t within = static_cast<uint32_t>(cur % stripe_sectors);
    const uint32_t run = std::min(
        remaining, static_cast<uint32_t>(stripe_sectors - within));
    const size_t first = targets.size();
    AppendTargets(stripe, within, &targets);
    // Merge with the previous extent only when every placement --
    // primary and each replica ordinal -- continues contiguously on
    // the same shard, so one merged extent still describes one
    // contiguous run per target.
    bool mergeable = !extents.empty();
    for (size_t k = 0; mergeable && k < r; ++k) {
      const ReplicaTarget& prev = targets[extents.back().first_target + k];
      const ReplicaTarget& next = targets[first + k];
      mergeable = prev.shard_index == next.shard_index &&
                  prev.shard_lba + extents.back().sectors == next.shard_lba;
    }
    if (mergeable) {
      targets.resize(first);
      extents.back().sectors += run;
    } else {
      extents.push_back(ShardExtent{run, buffer_offset,
                                    static_cast<uint32_t>(first)});
    }
    cur += run;
    remaining -= run;
    buffer_offset += run;
  }
}

uint64_t ShardMap::MigrationRegionBase(const Shard& shard) const {
  // Reserved slots sit at the top of the shard's own address space;
  // the base map is bounded by the smallest shard, so the regions of
  // larger shards start even further above any base placement.
  const uint64_t raw_slots = shard.capacity_sectors / options_.stripe_sectors;
  return (raw_slots - options_.migration_slots) * options_.stripe_sectors;
}

uint32_t ShardMap::FreeMigrationSlots(int shard_index) const {
  const Shard& shard = shards_[static_cast<size_t>(shard_index)];
  uint32_t free = 0;
  for (const bool used : shard.migration_slot_used) {
    if (!used) ++free;
  }
  return free;
}

bool ShardMap::AllocMigrationSlot(int shard_index, uint64_t* slot_lba) {
  Shard& shard = shards_[static_cast<size_t>(shard_index)];
  for (size_t j = 0; j < shard.migration_slot_used.size(); ++j) {
    if (shard.migration_slot_used[j]) continue;
    shard.migration_slot_used[j] = true;
    *slot_lba = MigrationRegionBase(shard) + j * options_.stripe_sectors;
    return true;
  }
  return false;
}

void ShardMap::FreeMigrationSlot(int shard_index, uint64_t slot_lba) {
  Shard& shard = shards_[static_cast<size_t>(shard_index)];
  const uint64_t base = MigrationRegionBase(shard);
  REFLEX_CHECK(slot_lba >= base);
  const uint64_t j = (slot_lba - base) / options_.stripe_sectors;
  REFLEX_CHECK(j < shard.migration_slot_used.size());
  REFLEX_CHECK(shard.migration_slot_used[j]);
  shard.migration_slot_used[j] = false;
}

std::vector<MigrationAssignment> ShardMap::PlanStripeMoves(
    const std::vector<StripeMove>& desired) {
  // Plan each stripe's ordinals jointly: R-distinctness must hold for
  // the post-move placement as a whole, not per individual move.
  std::map<uint64_t, std::vector<StripeMove>> by_stripe;
  for (const StripeMove& m : desired) {
    REFLEX_CHECK(m.ordinal >= 0 && m.ordinal < replication());
    REFLEX_CHECK(m.target_shard_index >= 0 &&
                 m.target_shard_index < num_shards());
    by_stripe[m.stripe].push_back(m);
  }
  std::vector<MigrationAssignment> plan;
  for (auto& [stripe, moves] : by_stripe) {
    const std::vector<ReplicaTarget> current = ReplicasForStripe(stripe);
    std::vector<int> post(current.size());
    for (size_t k = 0; k < current.size(); ++k) {
      post[k] = current[k].shard_index;
    }
    for (const StripeMove& m : moves) {
      post[static_cast<size_t>(m.ordinal)] = m.target_shard_index;
    }
    bool distinct = true;
    for (size_t a = 0; distinct && a < post.size(); ++a) {
      for (size_t b = a + 1; b < post.size(); ++b) {
        if (post[a] == post[b]) {
          distinct = false;
          break;
        }
      }
    }
    if (!distinct) continue;  // would co-locate two copies of a stripe
    const std::vector<ReplicaTarget> base = BaseTargets(stripe);
    std::vector<MigrationAssignment> stripe_plan;
    bool ok = true;
    for (const StripeMove& m : moves) {
      const ReplicaTarget& from = current[static_cast<size_t>(m.ordinal)];
      if (from.shard_index == m.target_shard_index) continue;  // no-op
      MigrationAssignment a;
      a.stripe = stripe;
      a.ordinal = m.ordinal;
      a.from = from;
      a.from_is_override = overrides_.count({stripe, m.ordinal}) > 0;
      const ReplicaTarget& home = base[static_cast<size_t>(m.ordinal)];
      if (m.target_shard_index == home.shard_index) {
        // Moving back to the base placement: its slot is permanently
        // owned by this (stripe, ordinal), no reservation needed.
        a.to = home;
        a.to_is_base = true;
      } else {
        uint64_t slot_lba = 0;
        if (!AllocMigrationSlot(m.target_shard_index, &slot_lba)) {
          ok = false;  // target out of landing slots: skip the stripe
          break;
        }
        a.to = ReplicaTarget{
            m.target_shard_index,
            shards_[static_cast<size_t>(m.target_shard_index)].id, slot_lba};
      }
      stripe_plan.push_back(a);
    }
    if (!ok) {
      for (const MigrationAssignment& a : stripe_plan) {
        if (!a.to_is_base) {
          FreeMigrationSlot(a.to.shard_index, a.to.shard_lba);
        }
      }
      continue;
    }
    plan.insert(plan.end(), stripe_plan.begin(), stripe_plan.end());
  }
  return plan;
}

std::vector<MigrationAssignment> ShardMap::PlanRangeMigration(
    int source_index, int target_index, uint64_t first_stripe,
    uint64_t stripe_count) {
  std::vector<StripeMove> desired;
  const uint64_t end =
      std::min(first_stripe + stripe_count, num_stripes());
  for (uint64_t stripe = first_stripe; stripe < end; ++stripe) {
    const std::vector<ReplicaTarget> current = ReplicasForStripe(stripe);
    for (int k = 0; k < static_cast<int>(current.size()); ++k) {
      if (current[static_cast<size_t>(k)].shard_index == source_index) {
        desired.push_back(StripeMove{stripe, k, target_index});
      }
    }
  }
  return PlanStripeMoves(desired);
}

void ShardMap::CommitMigration(
    const std::vector<MigrationAssignment>& assignments) {
  if (assignments.empty()) return;
  for (const MigrationAssignment& a : assignments) {
    if (a.from_is_override) {
      FreeMigrationSlot(a.from.shard_index, a.from.shard_lba);
    }
    if (a.to_is_base) {
      overrides_.erase({a.stripe, a.ordinal});
    } else {
      overrides_[{a.stripe, a.ordinal}] = a.to;
    }
  }
  // One epoch per batch: every assignment cut over atomically.
  ++epoch_;
}

void ShardMap::AbortMigration(
    const std::vector<MigrationAssignment>& assignments) {
  for (const MigrationAssignment& a : assignments) {
    if (!a.to_is_base) {
      FreeMigrationSlot(a.to.shard_index, a.to.shard_lba);
    }
  }
}

std::vector<ShardMap::PlacementMove> ShardMap::MovesSince(
    const ShardMap& older) const {
  std::vector<PlacementMove> moves;
  auto shard_of = [](const ShardMap& map, const auto& key) {
    const auto it = map.overrides_.find(key);
    if (it != map.overrides_.end()) return it->second.shard_index;
    const auto ordinal = static_cast<size_t>(key.second);
    return map.BaseTargets(key.first)[ordinal].shard_index;
  };
  auto visit = [&](const auto& key) {
    const int from = shard_of(older, key);
    const int to = shard_of(*this, key);
    if (from != to) moves.push_back(PlacementMove{from, to});
  };
  // Keys overridden in either map; a key overridden in both is
  // visited once, from this map's table.
  for (const auto& [key, target] : overrides_) visit(key);
  for (const auto& [key, target] : older.overrides_) {
    if (overrides_.count(key) == 0) visit(key);
  }
  return moves;
}

}  // namespace reflex::cluster
