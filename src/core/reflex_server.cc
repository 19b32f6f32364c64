#include "core/reflex_server.h"

#include <utility>

#include "sim/logging.h"

namespace reflex::core {

ReflexServer::ReflexServer(sim::Simulator& sim, net::Network& net,
                           net::Machine* machine,
                           flash::FlashDevice& device,
                           const flash::CalibrationResult& calibration,
                           ServerOptions options)
    : sim_(sim),
      net_(net),
      machine_(machine),
      device_(device),
      calibration_(calibration),
      options_(options),
      cost_model_(RequestCostModel::FromCalibration(calibration,
                                                    device.profile()
                                                        .page_bytes)) {
  REFLEX_CHECK(machine_ != nullptr);
  if (options_.num_threads < 1 ||
      options_.num_threads > options_.max_threads) {
    REFLEX_FATAL("num_threads=%d out of range [1, %d]",
                 options_.num_threads, options_.max_threads);
  }
  device_.AttachMetrics(metrics_);
  net_.AttachMetrics(metrics_);
  control_plane_ = std::make_unique<ControlPlane>(*this);
  shared_.num_threads = 0;
  for (int i = 0; i < options_.num_threads; ++i) AddThreadInternal();
  if (options_.auto_scale) control_plane_->StartMonitor();
}

ReflexServer::~ReflexServer() {
  for (auto& t : threads_) t->Shutdown();
}

DataplaneThread* ReflexServer::AddThreadInternal() {
  // Scale-down only stops threads; the objects (and their hardware
  // queue pairs) stay in threads_. Scaling back up must restart the
  // first stopped thread rather than append a new one -- otherwise
  // active_threads_ stops matching the live index range and the
  // round-robin in Accept / PickThreadForTenant routes connections
  // to a shut-down thread.
  if (active_threads_ < static_cast<int>(threads_.size())) {
    DataplaneThread* thread = threads_[active_threads_].get();
    ++active_threads_;
    shared_.num_threads = active_threads_;
    shared_.ResetMarks();
    thread->Start();
    return thread;
  }
  const int index = static_cast<int>(threads_.size());
  threads_.emplace_back(std::make_unique<DataplaneThread>(
      sim_, *this, index, device_, shared_, cost_model_, options_.qos));
  ++active_threads_;
  shared_.num_threads = active_threads_;
  shared_.ResetMarks();
  threads_.back()->Start();
  return threads_.back().get();
}

void ReflexServer::SetFaultPlan(sim::FaultPlan* plan) {
  fault_plan_ = plan;
  if (plan == nullptr || brownout_listener_added_) return;
  brownout_listener_added_ = true;
  plan->AddWindowListener(
      [this](sim::FaultKind kind, uint64_t /*id*/, bool active) {
        if (kind != sim::FaultKind::kFlashBrownout) return;
        control_plane_->OnBrownout(active);
      });
}

Tenant* ReflexServer::CreateTenant(const SloSpec& slo, TenantClass cls) {
  const auto handle = static_cast<uint32_t>(tenants_.size() + 1);
  tenants_.push_back(std::make_unique<Tenant>(handle, cls, slo));
  tenant_list_.push_back(tenants_.back().get());
  return tenant_list_.back();
}

Tenant* ReflexServer::RegisterTenant(const SloSpec& slo, TenantClass cls,
                                     ReqStatus* status) {
  return control_plane_->TryRegister(slo, cls, status);
}

bool ReflexServer::UnregisterTenant(uint32_t handle) {
  Tenant* tenant = FindTenant(handle);
  if (tenant == nullptr || !tenant->active()) return false;
  control_plane_->Unregister(tenant);
  return true;
}

Tenant* ReflexServer::FindTenant(uint32_t handle) {
  // Handle 0 (kControlHandle) wraps to an out-of-range index.
  const size_t index = static_cast<size_t>(handle) - 1;
  return index < tenant_list_.size() ? tenant_list_[index] : nullptr;
}

AcceptResult ReflexServer::Accept(
    net::Machine* client, uint32_t tenant_handle,
    std::function<void(const ResponseMsg&)> on_response) {
  REFLEX_CHECK(client != nullptr);
  AcceptResult result;
  DataplaneThread* thread = nullptr;
  if (tenant_handle == kControlHandle) {
    // Control connections stay tenant-unbound on a round-robin thread
    // until in-band registration binds them.
    thread =
        threads_[next_conn_thread_ % static_cast<size_t>(active_threads_)]
            .get();
    ++next_conn_thread_;
  } else {
    Tenant* tenant = FindTenant(tenant_handle);
    if (tenant == nullptr || !tenant->active()) {
      result.status = ReqStatus::kNoSuchTenant;
      return result;
    }
    if (!acl_.CheckConnect(client->name(), tenant_handle)) {
      result.status = ReqStatus::kAccessDenied;
      return result;
    }
    thread = threads_[tenant->thread_index()].get();
  }
  auto tcp = std::make_unique<net::TcpConnection>(net_, client, machine_,
                                                  options_.transport);
  auto conn = std::unique_ptr<ServerConnection>(
      new ServerConnection(std::move(tcp), this, thread, client->name()));
  conn->on_response = std::move(on_response);
  connections_.push_back(std::move(conn));
  result.conn = connections_.back().get();
  return result;
}

ResponseMsg ReflexServer::HandleRegisterMsg(ServerConnection* conn,
                                            const RequestMsg& msg) {
  ResponseMsg resp;
  resp.cookie = msg.cookie;
  if (msg.type == ReqType::kRegister) {
    resp.type = RespType::kRegistered;
    ReqStatus status = ReqStatus::kOk;
    Tenant* tenant = nullptr;
    // Tenant handle 0 denotes the right to register new tenants.
    if (!acl_.CheckConnect(conn->client_name(), /*tenant_handle=*/0)) {
      status = ReqStatus::kAccessDenied;
    } else {
      tenant = control_plane_->TryRegister(msg.slo, msg.tenant_class,
                                           &status);
    }
    resp.status = status;
    if (tenant != nullptr) {
      resp.handle = tenant->handle();
      conn->thread_ = threads_[tenant->thread_index()].get();
    }
  } else {
    resp.type = RespType::kUnregistered;
    resp.handle = msg.handle;
    Tenant* tenant = FindTenant(msg.handle);
    if (tenant == nullptr || !tenant->active()) {
      resp.status = ReqStatus::kNoSuchTenant;
    } else {
      control_plane_->Unregister(tenant);
      resp.status = ReqStatus::kOk;
    }
  }
  return resp;
}

obs::MetricsRegistry& ReflexServer::SnapshotMetrics() {
  for (const auto& t : threads_) {
    const DataplaneStats& s = t->stats();
    const obs::LabelSet labels = obs::Label("thread", t->index());
    metrics_.GetGauge("thread_iterations", labels)->Set(s.iterations);
    metrics_.GetGauge("thread_requests_rx", labels)->Set(s.requests_rx);
    metrics_.GetGauge("thread_responses_tx", labels)->Set(s.responses_tx);
    metrics_.GetGauge("thread_error_responses", labels)
        ->Set(s.error_responses);
    metrics_.GetGauge("thread_busy_ns", labels)->Set(s.busy_ns);
    metrics_.GetGauge("thread_tcp_ns", labels)->Set(s.tcp_ns);
    metrics_.GetGauge("thread_sched_ns", labels)->Set(s.sched_ns);
    metrics_.GetGauge("thread_flash_ns", labels)->Set(s.flash_ns);
  }
  for (const Tenant* t : tenant_list_) {
    const obs::LabelSet labels = obs::Label(
        "tenant", static_cast<int64_t>(t->handle()));
    metrics_.GetGauge("tenant_submitted_reads", labels)
        ->Set(t->submitted_reads);
    metrics_.GetGauge("tenant_submitted_writes", labels)
        ->Set(t->submitted_writes);
    metrics_.GetGauge("tenant_neg_limit_hits", labels)
        ->Set(t->neg_limit_hits);
    metrics_.GetGauge("tenant_tokens_spent", labels)
        ->Set(static_cast<int64_t>(t->tokens_spent));
    metrics_.GetGauge("tenant_queue_depth", labels)
        ->Set(static_cast<int64_t>(t->queue_depth()));
    metrics_.GetGauge("tenant_errors", labels)->Set(t->errors);
  }
  if (fault_plan_ != nullptr) {
    for (int k = 0; k < sim::kNumFaultKinds; ++k) {
      const auto kind = static_cast<sim::FaultKind>(k);
      metrics_
          .GetGauge("faults_injected",
                    obs::Label("kind", sim::FaultKindName(kind)))
          ->Set(fault_plan_->injected(kind));
    }
  }
  return metrics_;
}

int ReflexServer::AddRangeGate(uint64_t first_lba, uint64_t sectors) {
  const int id = next_gate_id_++;
  RangeGate gate;
  gate.first_lba = first_lba;
  gate.sectors = sectors;
  // A re-migration supersedes whatever gate an earlier migration left
  // on this range: fold the old epoch floor into the new gate (clients
  // older than that cutover must still bounce -- the lba may hold a
  // different stripe's bytes now) and drop the old gate. Without this,
  // gates stack up on a range that moves away, back, and away again,
  // and the oldest kMoved gate answers first with a floor low enough
  // to wave stale clients through to freed data.
  for (auto it = range_gates_.begin(); it != range_gates_.end();) {
    if (it->second.Overlaps(first_lba, sectors)) {
      gate.min_epoch = std::max(gate.min_epoch, it->second.min_epoch);
      it = range_gates_.erase(it);
    } else {
      ++it;
    }
  }
  range_gates_.emplace(id, gate);
  return id;
}

RangeGate* ReflexServer::FindRangeGate(int id) {
  auto it = range_gates_.find(id);
  return it == range_gates_.end() ? nullptr : &it->second;
}

void ReflexServer::RemoveRangeGate(int id) { range_gates_.erase(id); }

ReqStatus ReflexServer::CheckRangeGates(const RequestMsg& msg,
                                        int* counted_gate) {
  *counted_gate = -1;
  if (msg.map_epoch == kMapEpochBypass) return ReqStatus::kOk;
  const bool is_write = msg.type == ReqType::kWrite;
  for (const auto& [id, gate] : range_gates_) {
    if (!gate.Overlaps(msg.lba, msg.sectors)) continue;
    // The epoch floor applies in every state: a client older than the
    // last cutover that moved this range is routing blind (the lba may
    // belong to a different stripe by now), so it bounces even while a
    // fresh migration is copying the range again.
    if (msg.map_epoch < gate.min_epoch) return ReqStatus::kWrongShard;
    // Reads still serve under drain (no write can commit there);
    // writes bounce so the range quiesces. The client's bounded retry
    // straddles the map flip.
    if (is_write && gate.state == RangeGateState::kDraining) {
      return ReqStatus::kWrongShard;
    }
  }
  if (!is_write) return ReqStatus::kOk;
  // Admitted: every copying gate the write touches now holds a stale
  // image and must be recopied; stopping at the first one loses the
  // write on the others at cutover.
  for (auto& [id, gate] : range_gates_) {
    if (gate.state != RangeGateState::kCopying ||
        !gate.Overlaps(msg.lba, msg.sectors)) {
      continue;
    }
    gate.dirty = true;
    if (*counted_gate < 0) {
      ++gate.inflight_writes;
      *counted_gate = id;
    }
  }
  return ReqStatus::kOk;
}

void ReflexServer::OnGatedIoDone(int gate_id) {
  RangeGate* gate = FindRangeGate(gate_id);
  if (gate == nullptr) return;
  REFLEX_CHECK(gate->inflight_writes > 0);
  --gate->inflight_writes;
}

DataplaneStats ReflexServer::AggregateStats() const {
  DataplaneStats agg;
  for (const auto& t : threads_) {
    const DataplaneStats& s = t->stats();
    agg.iterations += s.iterations;
    agg.requests_rx += s.requests_rx;
    agg.responses_tx += s.responses_tx;
    agg.error_responses += s.error_responses;
    agg.sched_rounds += s.sched_rounds;
    agg.flash_submitted += s.flash_submitted;
    agg.busy_ns += s.busy_ns;
    agg.tcp_ns += s.tcp_ns;
    agg.sched_ns += s.sched_ns;
    agg.flash_ns += s.flash_ns;
    agg.batch_sum += s.batch_sum;
  }
  return agg;
}

}  // namespace reflex::core
