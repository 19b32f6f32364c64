#include "cluster/cluster_client.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace reflex::cluster {

const char* SteeringPolicyName(SteeringPolicy policy) {
  switch (policy) {
    case SteeringPolicy::kPrimaryOnly:
      return "primary_only";
    case SteeringPolicy::kPowerOfTwo:
      return "power_of_two";
    case SteeringPolicy::kFullScan:
      return "full_scan";
  }
  return "unknown";
}

bool SteeringPolicyFromName(const std::string& name, SteeringPolicy* out) {
  if (name == "primary_only") {
    *out = SteeringPolicy::kPrimaryOnly;
  } else if (name == "power_of_two") {
    *out = SteeringPolicy::kPowerOfTwo;
  } else if (name == "full_scan") {
    *out = SteeringPolicy::kFullScan;
  } else {
    return false;
  }
  return true;
}

ClusterSession::ClusterSession(
    ClusterClient& client, ClusterTenant tenant,
    std::vector<std::unique_ptr<client::TenantSession>> sessions,
    bool owns_tenant)
    : client_(client),
      tenant_(std::move(tenant)),
      shard_sessions_(std::move(sessions)),
      shard_latency_(shard_sessions_.size()),
      shard_reads_served_(shard_sessions_.size(), 0),
      steer_rng_(client.options().client.seed, "cluster.steering"),
      owns_tenant_(owns_tenant) {}

ClusterSession::~ClusterSession() {
  // A request still in flight has its frame parked on a sub-I/O future
  // or on its wrong-shard backoff. The shard clients outlive this
  // session and will still resolve those futures, so each future (and
  // the backoff timer) first forgets the frame; then the frame is
  // destroyed, which runs its local destructors but not its body. The
  // caller's future stays unresolved.
  for (uint32_t i = 0; i < io_slots_.capacity(); ++i) {
    IoSlot& s = io_slots_[i];
    if (!s.frame) continue;
    client_.cluster().sim().Cancel(s.backoff);
    for (ExtentRead& r : s.reads) {
      if (r.future) r.future->Abandon();
    }
    for (SubWrite& w : s.writes) w.future.Abandon();
    s.frame.destroy();
    s.frame = nullptr;
  }
  if (owns_tenant_) {
    // Drop the per-shard sessions first: they do not own the
    // registrations, so the cluster-wide unregister below is the only
    // teardown.
    shard_sessions_.clear();
    client_.cluster().control_plane().UnregisterTenant(tenant_);
  }
}

int ClusterSession::num_lanes() const {
  return shard_sessions_.empty() ? 1 : shard_sessions_[0]->num_lanes();
}

uint64_t ClusterSession::capacity_sectors() const {
  // The local routing copy (migration never changes capacity, so this
  // equals the master's).
  return client_.local_map().capacity_sectors();
}

uint32_t ClusterSession::sector_bytes() const { return core::kSectorBytes; }

uint32_t ClusterSession::sectors_per_page() const {
  return client_.cluster().device(0).profile().SectorsPerPage();
}

sim::Future<client::IoResult> ClusterSession::Read(uint64_t lba,
                                                   uint32_t sectors,
                                                   uint8_t* data, int lane) {
  return Submit(/*is_read=*/true, lba, sectors, data, lane);
}

sim::Future<client::IoResult> ClusterSession::Write(uint64_t lba,
                                                    uint32_t sectors,
                                                    uint8_t* data,
                                                    int lane) {
  return Submit(/*is_read=*/false, lba, sectors, data, lane);
}

sim::Future<client::IoResult> ClusterSession::Submit(bool is_read,
                                                     uint64_t lba,
                                                     uint32_t sectors,
                                                     uint8_t* data, int lane) {
  ++requests_issued_;
  sim::Simulator& sim = client_.cluster().sim();
  sim::Promise<client::IoResult> promise(sim);
  auto future = promise.GetFuture();
  FanOut(is_read, io_slots_.Acquire(), data, lane, lba, sectors, sim.Now(),
         std::move(promise));
  return future;
}

void ClusterSession::Route(uint32_t slot, uint64_t lba, uint32_t sectors,
                           int attempt) {
  IoSlot& s = io_slots_[slot];
  // Route through the client's local map copy: a migration that
  // commits on the master is invisible here until RefreshMap(), which
  // is exactly the staleness kWrongShard exists to catch.
  client_.local_map().Split(lba, sectors, &s.split);
  if (attempt == 0 && s.split.size() > 1) ++requests_split_;
  s.reads.clear();
  s.candidates.clear();
  s.writes.clear();
}

sim::CancellableDelay ClusterSession::WrongShardBackoff(uint32_t slot,
                                                        int attempt) {
  ++wrong_shard_retries_;
  client_.RefreshMap();
  // Doubling backoff: early retries catch a cutover that already
  // committed (refresh suffices); later ones outwait a drain window
  // that is still bouncing writes.
  return sim::CancellableDelay(client_.cluster().sim(),
                               kWrongShardBackoffBase << attempt,
                               &io_slots_[slot].backoff);
}

uint32_t ClusterSession::AppendLiveTargets(
    std::span<const ReplicaTarget> targets,
    std::vector<ReplicaTarget>* out) const {
  uint32_t live = 0;
  for (const ReplicaTarget& t : targets) {
    if (client_.IsDirty(t.shard_index)) continue;
    out->push_back(t);
    ++live;
  }
  // May be 0 when every placement is dirty: reads must then fail
  // closed -- a dirty copy has missed a committed write, so serving it
  // would return stale data as if it were current.
  return live;
}

size_t ClusterSession::SteerChoice(std::span<const ReplicaTarget> candidates) {
  const size_t n = candidates.size();
  switch (client_.options().steering) {
    case SteeringPolicy::kPrimaryOnly:
      return 0;
    case SteeringPolicy::kPowerOfTwo:
      if (n > 2) {
        // Two distinct uniform draws; the RNG is consumed only on this
        // path, so R<=2 configurations draw nothing and stay
        // bit-identical to their unreplicated runs.
        size_t i = static_cast<size_t>(steer_rng_.NextBounded(n));
        size_t j = static_cast<size_t>(steer_rng_.NextBounded(n - 1));
        if (j >= i) ++j;
        return Shallower(candidates[i], candidates[j]) ? i : j;
      }
      // Two candidates are both sampled: the full scan picks the same.
      [[fallthrough]];
    case SteeringPolicy::kFullScan:
      return Shallowest(candidates);
  }
  return 0;
}

bool ClusterSession::Shallower(const ReplicaTarget& a,
                               const ReplicaTarget& b) const {
  const double da = client_.EffectiveQueueDepth(a.shard_index);
  const double db = client_.EffectiveQueueDepth(b.shard_index);
  if (da != db) return da < db;
  return a.shard_id < b.shard_id;
}

size_t ClusterSession::Shallowest(
    std::span<const ReplicaTarget> candidates) const {
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (Shallower(candidates[i], candidates[best])) best = i;
  }
  return best;
}

void ClusterSession::SendRead(IoSlot& s, ExtentRead& st, uint32_t c,
                              int lane) {
  // Tried candidates stay at the front of the run, in send order. The
  // shallowest rule ranks by depth and shard id alone, so this reorder
  // never changes a later pick.
  std::swap(s.candidates[st.first + st.tried], s.candidates[st.first + c]);
  const ReplicaTarget& t = s.candidates[st.first + st.tried];
  ++st.tried;
  client::TenantSession& shard = *shard_sessions_[t.shard_index];
  st.future = st.tried < st.count
                  ? shard.ReadOnce(t.shard_lba, st.sectors, st.chunk, lane)
                  : shard.Read(t.shard_lba, st.sectors, st.chunk, lane);
}

bool ClusterSession::FailOver(uint32_t slot, size_t extent,
                              core::ReqStatus status, int lane) {
  IoSlot& s = io_slots_[slot];
  ExtentRead& st = s.reads[extent];
  if (status == core::ReqStatus::kTimedOut) {
    client_.PenalizeShard(s.candidates[st.first + st.tried - 1].shard_index);
  }
  if (st.tried == st.count) return false;
  ++read_failovers_;
  const std::span<const ReplicaTarget> untried(
      s.candidates.data() + st.first + st.tried, st.count - st.tried);
  SendRead(s, st, st.tried + static_cast<uint32_t>(Shallowest(untried)),
           lane);
  return true;
}

void ClusterSession::IssueReads(uint32_t slot, uint8_t* data, int lane) {
  // One in-flight attempt per extent: issue every extent's steered
  // first choice before awaiting any, so replicas work in parallel
  // and the request completes when the slowest extent does.
  IoSlot& s = io_slots_[slot];
  for (const ShardExtent& e : s.split) {
    ExtentRead& st = s.reads.emplace_back();
    st.first = static_cast<uint32_t>(s.candidates.size());
    st.count = AppendLiveTargets(s.split.Targets(e), &s.candidates);
    if (st.count == 0) continue;
    st.chunk = data == nullptr
                   ? nullptr
                   : data + static_cast<size_t>(e.buffer_offset_sectors) *
                                core::kSectorBytes;
    st.sectors = e.sectors;
    const std::span<const ReplicaTarget> live(s.candidates.data() + st.first,
                                              st.count);
    SendRead(s, st, static_cast<uint32_t>(SteerChoice(live)), lane);
  }
}

void ClusterSession::IssueWrites(uint32_t slot, uint8_t* data, int lane) {
  // Every replica of every extent -- dirty ones included, so a lagging
  // copy's divergence stays bounded -- is written in parallel; an
  // extent commits when at least one copy lands.
  IoSlot& s = io_slots_[slot];
  for (const ShardExtent& e : s.split) {
    uint8_t* chunk =
        data == nullptr
            ? nullptr
            : data + static_cast<size_t>(e.buffer_offset_sectors) *
                         core::kSectorBytes;
    for (const ReplicaTarget& t : s.split.Targets(e)) {
      s.writes.push_back(SubWrite{
          t.shard_index, shard_sessions_[t.shard_index]->Write(
                             t.shard_lba, e.sectors, chunk, lane)});
    }
  }
}

sim::Task ClusterSession::FanOut(bool is_read, uint32_t slot, uint8_t* data,
                                 int lane, uint64_t lba, uint32_t sectors,
                                 sim::TimeNs issue_time,
                                 sim::Promise<client::IoResult> promise) {
  co_await sim::SelfHandle(&io_slots_[slot].frame);
  client::IoResult result;
  for (int attempt = 0;; ++attempt) {
    Route(slot, lba, sectors, attempt);
    // Write replicas that failed while a sibling succeeded are marked
    // dirty (they now miss `version`) and serve no reads until
    // reinstated.
    const uint64_t version = is_read ? 0 : client_.NextWriteVersion();
    if (is_read) {
      IssueReads(slot, data, lane);
    } else {
      IssueWrites(slot, data, lane);
    }
    result = client::IoResult();
    result.issue_time = issue_time;
    // kWrongShard is stale routing, not a replica fault: every replica
    // in the (old) placement is equally stale, so failover is pointless
    // and the shard must NOT be marked dirty -- it still serves every
    // range it does own. The whole request reissues off a refreshed
    // map. Once the budget is spent a bounce degrades to the ordinary
    // failure path.
    const bool may_bounce = attempt < kMaxWrongShardRetries;
    bool bounced = false;
    const size_t extents = io_slots_[slot].split.size();
    const size_t replicas = io_slots_[slot].split.replication();
    for (size_t e = 0; e < extents; ++e) {
      core::ReqStatus status = core::ReqStatus::kOk;
      if (is_read && io_slots_[slot].reads[e].count == 0) {
        status = core::ReqStatus::kDeviceError;
      } else if (is_read) {
        client::IoResult r = co_await *io_slots_[slot].reads[e].future;
        // Failover: steer away from the failed replica and retry each
        // untried one until a copy serves the read or the set is
        // exhausted.
        while (!r.ok() &&
               !(may_bounce && r.status == core::ReqStatus::kWrongShard) &&
               FailOver(slot, e, r.status, lane)) {
          r = co_await *io_slots_[slot].reads[e].future;
        }
        bounced |= may_bounce && r.status == core::ReqStatus::kWrongShard;
        if (r.ok()) {
          // Attribution follows the shard that actually served this
          // sub-read -- after steering or failover that is not
          // necessarily the primary.
          const IoSlot& s = io_slots_[slot];
          const ExtentRead& st = s.reads[e];
          const int serving = s.candidates[st.first + st.tried - 1].shard_index;
          shard_latency_[serving].Record(r.Latency());
          ++shard_reads_served_[serving];
        }
        status = r.status;
      } else {
        int ok_live = 0;
        io_slots_[slot].failed_shards.clear();
        for (size_t k = e * replicas; k < (e + 1) * replicas; ++k) {
          const client::IoResult r = co_await io_slots_[slot].writes[k].future;
          IoSlot& s = io_slots_[slot];
          const int shard = s.writes[k].shard_index;
          if (r.ok()) {
            // Per-shard service latency of the copy this shard wrote.
            shard_latency_[shard].Record(r.Latency());
            // Only a copy on a *readable* (non-dirty) replica can
            // commit the extent: a dirty replica serves no reads, so
            // data held only there would make every later read stale.
            if (!client_.IsDirty(shard)) ++ok_live;
            continue;
          }
          if (status == core::ReqStatus::kOk) status = r.status;
          if (may_bounce && r.status == core::ReqStatus::kWrongShard) {
            bounced = true;
          } else {
            s.failed_shards.push_back(shard);
          }
        }
        // With no readable copy landed the extent fails and nobody is
        // marked dirty (clean replicas missed nothing *committed*; any
        // copy that did land is a zombie the client never advertises).
        if (ok_live > 0) {
          status = core::ReqStatus::kOk;
          for (int shard : io_slots_[slot].failed_shards) {
            client_.MarkDirty(shard, version);
          }
        } else if (status == core::ReqStatus::kOk) {
          status = core::ReqStatus::kDeviceError;
        }
      }
      // First failing extent's status wins (extents are awaited in
      // logical-LBA order, so the reported status is deterministic).
      if (result.ok()) result.status = status;
    }
    // Reissuing the whole request is idempotent: a read has no effect,
    // a write rewrites every replica with the same payload, and the
    // refreshed map routes the bounced extent to its new owner.
    if (!bounced) break;
    co_await WrongShardBackoff(slot, attempt);
  }
  result.complete_time = client_.cluster().sim().Now();
  promise.Set(result);
  io_slots_[slot].frame = nullptr;
  io_slots_.Release(slot);
}

ClusterClient::ClusterClient(FlashCluster& cluster, net::Machine* machine)
    : ClusterClient(cluster, machine, Options{}) {}

ClusterClient::ClusterClient(FlashCluster& cluster, net::Machine* machine,
                             Options options)
    : cluster_(cluster),
      machine_(machine),
      options_(options),
      local_map_(cluster.shard_map()) {
  for (int i = 0; i < cluster_.num_shards(); ++i) {
    client::ReflexClient::Options shard_options = options_.client;
    shard_options.seed =
        options_.client.seed + 0x9e3779b97f4a7c15ULL * (i + 1);
    clients_.push_back(std::make_unique<client::ReflexClient>(
        cluster_.sim(), cluster_.server(i), machine_, shard_options));
    clients_.back()->set_hint_listener(
        [this, i](uint32_t depth) { ObserveHint(i, depth); });
    // All cluster traffic is epoch-stamped from the start, so a range
    // that later migrates away can tell this client's pre-cutover
    // routing from fresh routing.
    clients_.back()->set_map_epoch(local_map_.epoch());
  }
  hints_.resize(static_cast<size_t>(cluster_.num_shards()));
  dirty_since_.assign(static_cast<size_t>(cluster_.num_shards()), 0);
}

void ClusterClient::RefreshMap() {
  ShardMap previous = std::move(local_map_);
  local_map_ = cluster_.shard_map();
  // A migration copies a placement with whatever data it holds. A copy
  // taken off a shard this client marked dirty may predate a write the
  // shard missed, so the placement's new shard inherits the mark.
  for (const ShardMap::PlacementMove& m : local_map_.MovesSince(previous)) {
    const uint64_t since = dirty_since_[static_cast<size_t>(m.from_shard)];
    if (since != 0) MarkDirty(m.to_shard, since);
  }
  for (auto& client : clients_) {
    client->set_map_epoch(local_map_.epoch());
  }
}

void ClusterClient::ObserveHint(int shard, uint32_t depth) {
  HintState& h = hints_[static_cast<size_t>(shard)];
  h.depth = static_cast<double>(depth);
  h.at = cluster_.sim().Now();
  h.seen = true;
}

double ClusterClient::EffectiveQueueDepth(int shard) const {
  // Hint decay horizon: a shard's queue-depth hint interpolates
  // linearly back to kHintPrior over this window since the last
  // response from that shard, so a silent (possibly dead) shard
  // neither repels nor attracts reads forever on stale evidence.
  constexpr sim::TimeNs kHintStaleAfter = sim::Micros(500);
  // Queue depth assumed for shards with no (fresh) hint.
  constexpr double kHintPrior = 0.0;
  const HintState& h = hints_[static_cast<size_t>(shard)];
  if (!h.seen) return kHintPrior;
  const sim::TimeNs age = cluster_.sim().Now() - h.at;
  if (age >= kHintStaleAfter) return kHintPrior;
  // Linear decay from the observed depth back to the prior: fresh
  // hints dominate, stale ones fade instead of pinning a dead shard's
  // last-known load forever.
  const double f =
      static_cast<double>(age) / static_cast<double>(kHintStaleAfter);
  return h.depth + (kHintPrior - h.depth) * f;
}

void ClusterClient::MarkDirty(int shard, uint64_t version) {
  uint64_t& since = dirty_since_[static_cast<size_t>(shard)];
  if (since == 0) since = version;
}

void ClusterClient::PenalizeShard(int shard) {
  HintState& h = hints_[static_cast<size_t>(shard)];
  h.depth = kPenaltyDepth;
  h.at = cluster_.sim().Now();
  h.seen = true;
}

std::unique_ptr<ClusterSession> ClusterClient::OpenSession(
    const core::SloSpec& slo, core::TenantClass cls, AdmitResult* result) {
  AdmitResult local;
  if (result == nullptr) result = &local;
  ClusterTenant tenant =
      cluster_.control_plane().RegisterTenant(slo, cls, result);
  if (!tenant.valid()) return nullptr;
  // MakeSession rolls the registration back if any shard refuses the
  // connection after admission.
  return MakeSession(std::move(tenant), /*owns_tenant=*/true, result);
}

std::unique_ptr<ClusterSession> ClusterClient::AttachSession(
    const ClusterTenant& tenant, core::ReqStatus* status) {
  if (!tenant.valid()) return nullptr;
  AdmitResult result;
  auto session = MakeSession(tenant, /*owns_tenant=*/false, &result);
  if (status != nullptr) *status = result.status;
  return session;
}

std::unique_ptr<ClusterSession> ClusterClient::MakeSession(
    ClusterTenant tenant, bool owns_tenant, AdmitResult* result) {
  REFLEX_CHECK(static_cast<int>(tenant.handles.size()) ==
               cluster_.num_shards());
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  for (int i = 0; i < cluster_.num_shards(); ++i) {
    core::ReqStatus shard_status = core::ReqStatus::kOk;
    auto s = clients_[i]->AttachSession(tenant.handles[i], &shard_status);
    if (s == nullptr) {
      if (owns_tenant) {
        cluster_.control_plane().UnregisterTenant(tenant);
      }
      if (result != nullptr) {
        result->kind = owns_tenant ? AdmitResult::Kind::kRolledBack
                                   : AdmitResult::Kind::kRejectedShard;
        result->shard = i;
        result->status = shard_status;
      }
      return nullptr;
    }
    sessions.push_back(std::move(s));
  }
  if (result != nullptr) *result = AdmitResult{};
  return std::unique_ptr<ClusterSession>(new ClusterSession(
      *this, std::move(tenant), std::move(sessions), owns_tenant));
}

}  // namespace reflex::cluster
