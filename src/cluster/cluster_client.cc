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
  // Frames parked mid-await (session destroyed with I/O in flight, or
  // the simulation ended first) never self-destruct: suspend_never
  // final suspend means a frame frees itself only by running to the
  // end of its body. Destroying one here runs its local destructors
  // but not its body, so io_frames_ is not mutated mid-iteration.
  for (auto& [id, handle] : io_frames_) {
    if (handle) handle.destroy();
  }
  io_frames_.clear();
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
  Dispatch(is_read, lba, sectors, data, lane, /*attempt=*/0, sim.Now(),
           std::move(promise));
  return future;
}

void ClusterSession::Dispatch(bool is_read, uint64_t lba, uint32_t sectors,
                              uint8_t* data, int lane, int attempt,
                              sim::TimeNs issue_time,
                              sim::Promise<client::IoResult> promise) {
  // Route through the client's local map copy: a migration that
  // commits on the master is invisible here until RefreshMap(), which
  // is exactly the staleness kWrongShard exists to catch.
  std::vector<ShardExtent> extents = client_.local_map().Split(lba, sectors);
  if (attempt == 0 && extents.size() > 1) ++requests_split_;
  if (is_read) {
    FanOutRead(std::move(extents), data, lane, lba, sectors, attempt,
               issue_time, std::move(promise));
  } else {
    FanOutWrite(std::move(extents), data, lane, lba, sectors, attempt,
                issue_time, std::move(promise));
  }
}

sim::Task ClusterSession::RetryWrongShard(
    bool is_read, uint64_t lba, uint32_t sectors, uint8_t* data, int lane,
    int attempt, sim::TimeNs issue_time,
    sim::Promise<client::IoResult> promise) {
  const uint64_t frame_id = next_frame_id_++;
  co_await sim::SelfHandle(&io_frames_[frame_id]);
  ++wrong_shard_retries_;
  client_.RefreshMap();
  // Doubling backoff: early retries catch a cutover that already
  // committed (refresh suffices); later ones outwait a drain window
  // that is still bouncing writes.
  co_await sim::Delay(client_.cluster().sim(),
                      kWrongShardBackoffBase << attempt);
  Dispatch(is_read, lba, sectors, data, lane, attempt + 1, issue_time,
           std::move(promise));
  io_frames_.erase(frame_id);
}

std::vector<ReplicaTarget> ClusterSession::LiveTargets(
    const ShardExtent& e) const {
  std::vector<ReplicaTarget> all = e.AllTargets();
  std::vector<ReplicaTarget> live;
  live.reserve(all.size());
  for (const ReplicaTarget& t : all) {
    if (!client_.IsDirty(t.shard_index)) live.push_back(t);
  }
  // May be empty when every placement is dirty: reads must then fail
  // closed -- a dirty copy has missed a committed write, so serving it
  // would return stale data as if it were current.
  return live;
}

size_t ClusterSession::SteerChoice(
    const std::vector<ReplicaTarget>& candidates) {
  const size_t n = candidates.size();
  if (n == 1) return 0;
  // Shallower estimated queue wins; ties break by shard id so the
  // choice is deterministic for identical hints.
  auto better = [this, &candidates](size_t a, size_t b) {
    const double da = client_.EffectiveQueueDepth(candidates[a].shard_index);
    const double db = client_.EffectiveQueueDepth(candidates[b].shard_index);
    if (da != db) return da < db;
    return candidates[a].shard_id < candidates[b].shard_id;
  };
  switch (client_.options().steering) {
    case SteeringPolicy::kPrimaryOnly:
      return 0;
    case SteeringPolicy::kFullScan: {
      size_t best = 0;
      for (size_t i = 1; i < n; ++i) {
        if (better(i, best)) best = i;
      }
      return best;
    }
    case SteeringPolicy::kPowerOfTwo: {
      if (n <= 2) return better(0, 1) ? 0 : 1;
      // Two distinct uniform draws; the RNG is consumed only on this
      // path, so R<=2 configurations draw nothing and stay
      // bit-identical to their unreplicated runs.
      size_t i = static_cast<size_t>(steer_rng_.NextBounded(n));
      size_t j = static_cast<size_t>(steer_rng_.NextBounded(n - 1));
      if (j >= i) ++j;
      return better(i, j) ? i : j;
    }
  }
  return 0;
}

sim::Task ClusterSession::FanOutRead(std::vector<ShardExtent> extents,
                                     uint8_t* data, int lane, uint64_t lba,
                                     uint32_t sectors, int attempt,
                                     sim::TimeNs issue_time,
                                     sim::Promise<client::IoResult> promise) {
  const uint64_t frame_id = next_frame_id_++;
  co_await sim::SelfHandle(&io_frames_[frame_id]);
  // One in-flight attempt per extent: issue every extent's steered
  // first choice before awaiting any, so replicas work in parallel
  // and the request completes when the slowest extent does.
  struct ExtentState {
    std::vector<ReplicaTarget> candidates;
    std::vector<bool> tried;
    size_t inflight = 0;  // index into candidates
    uint8_t* chunk = nullptr;
    uint32_t sectors = 0;
    /** Every replica dirty: the extent fails without any I/O. */
    bool unreadable = false;
    sim::Future<client::IoResult> future;
  };
  std::vector<ExtentState> states;
  states.reserve(extents.size());
  for (const ShardExtent& e : extents) {
    ExtentState st;
    st.candidates = LiveTargets(e);
    if (st.candidates.empty()) {
      st.unreadable = true;
      states.push_back(std::move(st));
      continue;
    }
    st.tried.assign(st.candidates.size(), false);
    st.chunk = data == nullptr
                   ? nullptr
                   : data + static_cast<size_t>(e.buffer_offset_sectors) *
                                core::kSectorBytes;
    st.sectors = e.sectors;
    st.inflight = SteerChoice(st.candidates);
    st.tried[st.inflight] = true;
    const ReplicaTarget& t = st.candidates[st.inflight];
    st.future = shard_sessions_[t.shard_index]->Read(t.shard_lba, e.sectors,
                                                     st.chunk, lane);
    states.push_back(std::move(st));
  }

  client::IoResult result;
  result.issue_time = issue_time;
  bool saw_wrong_shard = false;
  for (ExtentState& st : states) {
    if (st.unreadable) {
      if (result.ok()) result.status = core::ReqStatus::kDeviceError;
      continue;
    }
    client::IoResult r = co_await st.future;
    int serving = st.candidates[st.inflight].shard_index;
    // Failover: steer away from the failed replica and retry each
    // untried one (shallowest estimated queue first, ties by shard
    // id) until a copy serves the read or the set is exhausted.
    while (!r.ok()) {
      if (r.status == core::ReqStatus::kWrongShard &&
          attempt < kMaxWrongShardRetries) {
        // Stale routing, not a replica fault: every replica in this
        // (old) placement is equally stale, so failover is pointless.
        // The whole request reissues off a refreshed map below. Once
        // the budget is spent it degrades to the ordinary failure
        // path instead.
        saw_wrong_shard = true;
        break;
      }
      if (r.status == core::ReqStatus::kTimedOut) {
        client_.PenalizeShard(serving);
      }
      size_t next = st.candidates.size();
      for (size_t i = 0; i < st.candidates.size(); ++i) {
        if (st.tried[i]) continue;
        if (next == st.candidates.size()) {
          next = i;
          continue;
        }
        const double di =
            client_.EffectiveQueueDepth(st.candidates[i].shard_index);
        const double dn =
            client_.EffectiveQueueDepth(st.candidates[next].shard_index);
        if (di < dn || (di == dn && st.candidates[i].shard_id <
                                        st.candidates[next].shard_id)) {
          next = i;
        }
      }
      if (next == st.candidates.size()) break;  // all replicas tried
      ++read_failovers_;
      st.tried[next] = true;
      st.inflight = next;
      const ReplicaTarget& t = st.candidates[next];
      serving = t.shard_index;
      r = co_await shard_sessions_[t.shard_index]->Read(
          t.shard_lba, st.sectors, st.chunk, lane);
    }
    if (r.ok()) {
      // Attribution follows the shard that actually served this
      // sub-read -- after steering or failover that is not
      // necessarily the primary.
      shard_latency_[serving].Record(r.Latency());
      ++shard_reads_served_[serving];
    } else if (result.ok()) {
      // First failing extent's status wins (extents are awaited in
      // logical-LBA order, so the reported status is deterministic).
      result.status = r.status;
    }
  }
  if (saw_wrong_shard && attempt < kMaxWrongShardRetries) {
    RetryWrongShard(/*is_read=*/true, lba, sectors, data, lane, attempt,
                    issue_time, std::move(promise));
    io_frames_.erase(frame_id);
    co_return;
  }
  result.complete_time = client_.cluster().sim().Now();
  promise.Set(result);
  io_frames_.erase(frame_id);
}

sim::Task ClusterSession::FanOutWrite(std::vector<ShardExtent> extents,
                                      uint8_t* data, int lane, uint64_t lba,
                                      uint32_t sectors, int attempt,
                                      sim::TimeNs issue_time,
                                      sim::Promise<client::IoResult> promise) {
  const uint64_t frame_id = next_frame_id_++;
  co_await sim::SelfHandle(&io_frames_[frame_id]);
  const uint64_t version = client_.NextWriteVersion();
  // Every replica of every extent -- dirty ones included, so a lagging
  // copy's divergence stays bounded -- is written in parallel; an
  // extent commits when at least one copy lands. Replicas that failed
  // while a sibling succeeded are marked dirty (they now miss
  // `version`) and serve no reads until reinstated.
  struct SubWrite {
    int shard_index = 0;
    sim::Future<client::IoResult> future;
  };
  std::vector<std::vector<SubWrite>> per_extent;
  per_extent.reserve(extents.size());
  for (const ShardExtent& e : extents) {
    uint8_t* chunk =
        data == nullptr
            ? nullptr
            : data + static_cast<size_t>(e.buffer_offset_sectors) *
                         core::kSectorBytes;
    std::vector<ReplicaTarget> targets = e.AllTargets();
    std::vector<SubWrite> subs;
    subs.reserve(targets.size());
    for (const ReplicaTarget& t : targets) {
      SubWrite sw;
      sw.shard_index = t.shard_index;
      sw.future = shard_sessions_[t.shard_index]->Write(t.shard_lba,
                                                        e.sectors, chunk,
                                                        lane);
      subs.push_back(std::move(sw));
    }
    per_extent.push_back(std::move(subs));
  }

  client::IoResult result;
  result.issue_time = issue_time;
  bool saw_wrong_shard = false;
  for (std::vector<SubWrite>& subs : per_extent) {
    int ok_live = 0;
    core::ReqStatus first_fail = core::ReqStatus::kOk;
    std::vector<int> failed_shards;
    for (SubWrite& sw : subs) {
      const client::IoResult r = co_await sw.future;
      if (r.ok()) {
        // Per-shard service latency of the copy this shard wrote.
        shard_latency_[sw.shard_index].Record(r.Latency());
        // Only a copy on a *readable* (non-dirty) replica can commit
        // the extent: a dirty replica serves no reads, so data held
        // only there would make every later read stale.
        if (!client_.IsDirty(sw.shard_index)) ++ok_live;
      } else if (r.status == core::ReqStatus::kWrongShard &&
                 attempt < kMaxWrongShardRetries) {
        // The shard no longer owns this placement (or is draining it).
        // That is stale routing, not a missed write: the shard must
        // NOT be marked dirty -- it still serves every range it does
        // own. The whole request reissues off a refreshed map. Once
        // the retry budget is spent the bounce degrades to the
        // ordinary failure path (fail-closed dirty marking).
        saw_wrong_shard = true;
        if (first_fail == core::ReqStatus::kOk) first_fail = r.status;
      } else {
        if (first_fail == core::ReqStatus::kOk) first_fail = r.status;
        failed_shards.push_back(sw.shard_index);
      }
    }
    if (ok_live == 0) {
      // No readable copy landed: the extent fails and nobody is
      // marked dirty (clean replicas missed nothing *committed*; any
      // copy that did land is a zombie the client never advertises).
      if (result.ok()) {
        result.status = first_fail != core::ReqStatus::kOk
                            ? first_fail
                            : core::ReqStatus::kDeviceError;
      }
    } else {
      for (int shard : failed_shards) client_.MarkDirty(shard, version);
    }
  }
  if (saw_wrong_shard && attempt < kMaxWrongShardRetries) {
    // Reissuing the whole request is idempotent (same payload, every
    // replica rewritten) and the refreshed map routes the bounced
    // extent to its post-migration owner.
    RetryWrongShard(/*is_read=*/false, lba, sectors, data, lane, attempt,
                    issue_time, std::move(promise));
    io_frames_.erase(frame_id);
    co_return;
  }
  result.complete_time = client_.cluster().sim().Now();
  promise.Set(result);
  io_frames_.erase(frame_id);
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
