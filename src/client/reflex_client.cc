#include "client/reflex_client.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "sim/logging.h"

namespace reflex::client {

TenantSession::~TenantSession() {
  if (owns_handle_) client_.server().UnregisterTenant(handle_);
}

sim::Future<IoResult> TenantSession::Read(uint64_t lba, uint32_t sectors,
                                          uint8_t* data, int conn_index) {
  return client_.SubmitIo(core::ReqType::kRead, handle_, lba, sectors,
                          data, conn_index);
}

sim::Future<IoResult> TenantSession::Write(uint64_t lba, uint32_t sectors,
                                           uint8_t* data, int conn_index) {
  return client_.SubmitIo(core::ReqType::kWrite, handle_, lba, sectors,
                          data, conn_index);
}

sim::Future<IoResult> TenantSession::Barrier(int conn_index) {
  return client_.SubmitIo(core::ReqType::kBarrier, handle_, 0, 0, nullptr,
                          conn_index);
}

int TenantSession::num_lanes() const { return client_.num_connections(); }

uint64_t TenantSession::capacity_sectors() const {
  return client_.server().device().profile().capacity_sectors;
}

uint32_t TenantSession::sector_bytes() const {
  return client_.server().device().profile().sector_bytes;
}

uint32_t TenantSession::sectors_per_page() const {
  return client_.server().device().profile().SectorsPerPage();
}

ReflexClient::ReflexClient(sim::Simulator& sim, core::ReflexServer& server,
                           net::Machine* machine, Options options)
    : sim_(sim),
      server_(server),
      machine_(machine),
      options_(options),
      rng_(options.seed, "reflex_client"),
      sampler_(options.trace_sample_every) {
  REFLEX_CHECK(options_.num_connections >= 1);
  if (retries_enabled()) {
    obs::MetricsRegistry& registry = server_.metrics();
    timeouts_metric_ = registry.GetCounter("client_timeouts");
    retries_metric_ = registry.GetCounter("client_retries");
    failures_metric_ = registry.GetCounter("client_failures");
  }
}

ReflexClient::~ReflexClient() {
  // Unresolved ops still hold watchdog events whose callbacks capture
  // `this`; disarm them so a simulator outliving the client cannot
  // dispatch into a destroyed object. A free slot's handle is stale,
  // which Cancel() detects and ignores.
  for (uint32_t slot = 0; slot < ops_.capacity(); ++slot) {
    sim_.Cancel(ops_[slot].watchdog);
  }
}

int ReflexClient::OpenConnection() {
  core::AcceptResult accepted = server_.Accept(
      machine_, core::kControlHandle,
      [this](const core::ResponseMsg& resp) { OnResponse(resp); });
  REFLEX_CHECK(accepted.conn != nullptr);
  connections_.push_back(accepted.conn);
  conn_timeouts_.push_back(0);
  return static_cast<int>(connections_.size()) - 1;
}

bool ReflexClient::EnsureSessionConnections(uint32_t handle,
                                            core::ReqStatus* status) {
  if (status != nullptr) *status = core::ReqStatus::kOk;
  if (!connections_.empty()) return true;
  for (int i = 0; i < options_.num_connections; ++i) {
    core::AcceptResult accepted = server_.Accept(
        machine_, handle,
        [this](const core::ResponseMsg& resp) { OnResponse(resp); });
    if (accepted.conn == nullptr) {
      if (status != nullptr) *status = accepted.status;
      return false;
    }
    connections_.push_back(accepted.conn);
    conn_timeouts_.push_back(0);
  }
  return true;
}

std::unique_ptr<TenantSession> ReflexClient::OpenSession(
    const core::SloSpec& slo, core::TenantClass cls,
    core::ReqStatus* status) {
  core::Tenant* tenant = server_.RegisterTenant(slo, cls, status);
  if (tenant == nullptr) return nullptr;
  if (!EnsureSessionConnections(tenant->handle(), status)) {
    server_.UnregisterTenant(tenant->handle());
    return nullptr;
  }
  return std::unique_ptr<TenantSession>(
      new TenantSession(*this, tenant->handle(), /*owns_handle=*/true));
}

std::unique_ptr<TenantSession> ReflexClient::AttachSession(
    uint32_t handle, core::ReqStatus* status) {
  if (!EnsureSessionConnections(handle, status)) return nullptr;
  return std::unique_ptr<TenantSession>(
      new TenantSession(*this, handle, /*owns_handle=*/false));
}

sim::Future<core::ResponseMsg> ReflexClient::Register(
    const core::SloSpec& slo, core::TenantClass cls) {
  if (connections_.empty()) OpenConnection();
  core::RequestMsg msg;
  msg.type = core::ReqType::kRegister;
  msg.slo = slo;
  msg.tenant_class = cls;
  msg.cookie = next_cookie_++;
  sim::Promise<core::ResponseMsg> promise(sim_);
  auto future = promise.GetFuture();
  pending_control_.emplace(msg.cookie, std::move(promise));
  core::ServerConnection* conn = connections_[0];
  const uint32_t slot = conn->Park(std::move(msg));
  sim_.ScheduleAfter(options_.stack.TxCost(core::kRegisterMsgBytes),
                     [conn, slot] { conn->Send(slot); });
  return future;
}

sim::Future<core::ResponseMsg> ReflexClient::Unregister(uint32_t handle) {
  if (connections_.empty()) OpenConnection();
  core::RequestMsg msg;
  msg.type = core::ReqType::kUnregister;
  msg.handle = handle;
  msg.cookie = next_cookie_++;
  sim::Promise<core::ResponseMsg> promise(sim_);
  auto future = promise.GetFuture();
  pending_control_.emplace(msg.cookie, std::move(promise));
  core::ServerConnection* conn = connections_[0];
  const uint32_t slot = conn->Park(std::move(msg));
  sim_.ScheduleAfter(options_.stack.TxCost(core::kRegisterMsgBytes),
                     [conn, slot] { conn->Send(slot); });
  return future;
}

sim::Future<IoResult> ReflexClient::SubmitIo(core::ReqType type,
                                             uint32_t handle, uint64_t lba,
                                             uint32_t sectors, uint8_t* data,
                                             int conn_index) {
  core::RequestMsg msg;
  msg.type = type;
  msg.handle = handle;
  msg.lba = lba;
  msg.sectors = sectors;
  msg.data = WireBuffer(type, sectors, data);
  msg.cookie = next_cookie_++;
  msg.map_epoch = map_epoch_;

  std::shared_ptr<obs::TraceSpan> trace;
  if (type != core::ReqType::kBarrier && sampler_.Sample()) {
    trace = std::make_shared<obs::TraceSpan>();
    trace->is_read = type == core::ReqType::kRead;
    trace->tenant = handle;
    trace->Mark(obs::Stage::kClientIssue, sim_.Now());
    msg.trace = trace;
  }

  if (conn_index < 0) {
    conn_index = next_conn_;
    next_conn_ = (next_conn_ + 1) % static_cast<int>(connections_.size());
  }
  core::ServerConnection* conn =
      connections_[static_cast<size_t>(conn_index)];

  sim::Promise<IoResult> promise(sim_);
  auto future = promise.GetFuture();
  const uint32_t payload_bytes =
      type == core::ReqType::kRead ? sectors * core::kSectorBytes : 0;
  PendingOp op{std::move(promise), sim_.Now(), payload_bytes,
               std::move(trace)};
  op.type = type;
  op.handle = handle;
  op.lba = lba;
  op.sectors = sectors;
  op.data = data;
  op.wire = msg.data;
  op.conn_index = conn_index;
  pending_.Insert(msg.cookie, ops_.Add(std::move(op)));

  // Client-side transmit processing, then ship over TCP.
  const uint64_t cookie = msg.cookie;
  const uint32_t wire = msg.WireBytes(core::kSectorBytes);
  const sim::TimeNs tx_cost = options_.stack.TxCost(wire);
  const uint32_t parked = conn->Park(std::move(msg));
  sim_.ScheduleAfter(tx_cost, [conn, parked] { conn->Send(parked); });
  if (retries_enabled()) ArmTimeout(cookie, /*attempt=*/1, tx_cost);
  return future;
}

core::Payload ReflexClient::WireBuffer(core::ReqType type,
                                       uint32_t sectors,
                                       const uint8_t* data) {
  if (data == nullptr) return nullptr;
  const size_t bytes = static_cast<size_t>(sectors) * core::kSectorBytes;
  core::Payload buffer;
  if (sectors < spare_buffers_.size()) {
    std::vector<core::Payload>& spare = spare_buffers_[sectors];
    if (!spare.empty() && spare.back().use_count() == 1) {
      buffer = std::move(spare.back());
      spare.pop_back();
    }
  }
  if (buffer == nullptr) {
    buffer = std::make_shared_for_overwrite<uint8_t[]>(bytes);
  }
  // A write's bytes are serialized at send time, as a real NIC would:
  // the caller may reuse its buffer once the op resolves, even if the
  // request is still on its way to the device.
  if (type == core::ReqType::kWrite) std::memcpy(buffer.get(), data, bytes);
  return buffer;
}

void ReflexClient::RecycleBuffer(uint32_t sectors, core::Payload buffer) {
  if (spare_buffers_.size() <= sectors) spare_buffers_.resize(sectors + 1);
  spare_buffers_[sectors].push_back(std::move(buffer));
}

sim::TimeNs ReflexClient::BackoffDelay(int attempt) const {
  // Upper bound of the exponential retransmission backoff.
  constexpr sim::TimeNs kBackoffCap = sim::Millis(5);
  // attempt is the retransmission ordinal (1 = first retry).
  sim::TimeNs delay = options_.retry.backoff_base;
  for (int i = 1; i < attempt && delay < kBackoffCap; ++i) {
    delay *= 2;
  }
  return std::min(delay, kBackoffCap);
}

void ReflexClient::ArmTimeout(uint64_t cookie, int attempt,
                              sim::TimeNs extra_delay) {
  const uint32_t slot = pending_.Find(cookie);
  REFLEX_CHECK(slot != sim::FlatIndex::kNone);
  // Disarm the previous attempt's watchdog (a no-op when it already
  // fired, i.e. on the timeout-driven retransmit path) so each op keeps
  // at most one live timeout event in the simulator.
  sim_.Cancel(ops_[slot].watchdog);
  ops_[slot].watchdog = sim_.ScheduleAfter(
      options_.retry.request_timeout + extra_delay,
      [this, cookie, attempt] { OnTimeout(cookie, attempt); });
}

void ReflexClient::OnTimeout(uint64_t cookie, int attempt) {
  const uint32_t slot = pending_.Find(cookie);
  // Completed, or already retransmitted (a newer watchdog is armed).
  if (slot == sim::FlatIndex::kNone || ops_[slot].attempts != attempt) {
    return;
  }
  PendingOp& op = ops_[slot];
  ++fault_stats_.timeouts;
  if (timeouts_metric_ != nullptr) timeouts_metric_->Increment();

  const int ci = op.conn_index;
  if (++conn_timeouts_[ci] >= options_.retry.reconnect_after_timeouts) {
    ReconnectConnection(ci);
  }

  const bool idempotent = op.type == core::ReqType::kRead;
  if (idempotent && op.attempts <= options_.retry.max_retries) {
    Retransmit(cookie, BackoffDelay(op.attempts));
    return;
  }
  // Writes and barriers are not retransmitted: the request may have
  // executed and only the response been lost. Surface the uncertainty
  // as kUnknownOutcome rather than a definite failure (or fabricated
  // success); reads that exhausted their retries definitely produced
  // no application-visible effect and fail with kTimedOut.
  FailPending(TakeOp(cookie, slot), idempotent
                                     ? core::ReqStatus::kTimedOut
                                     : core::ReqStatus::kUnknownOutcome);
}

void ReflexClient::Retransmit(uint64_t cookie, sim::TimeNs delay) {
  const uint32_t slot = pending_.Find(cookie);
  REFLEX_CHECK(slot != sim::FlatIndex::kNone);
  PendingOp& op = ops_[slot];
  ++op.attempts;
  ++fault_stats_.retries;
  if (retries_metric_ != nullptr) retries_metric_->Increment();

  core::RequestMsg msg;
  msg.type = op.type;
  msg.handle = op.handle;
  msg.lba = op.lba;
  msg.sectors = op.sectors;
  // A fresh buffer per transmission: a late response to an earlier
  // attempt must not share bytes with the one that resolves the op.
  msg.data = WireBuffer(op.type, op.sectors, op.data);
  op.wire = msg.data;
  msg.cookie = cookie;
  // Stamp the *current* epoch: if the map refreshed between attempts,
  // the retransmission routes (and gates) as fresh traffic.
  msg.map_epoch = map_epoch_;
  // The original trace span stays with the pending op; the wire copy
  // is untraced so server stages are not double-marked.

  core::ServerConnection* conn =
      connections_[static_cast<size_t>(op.conn_index)];
  const uint32_t wire = msg.WireBytes(core::kSectorBytes);
  const sim::TimeNs tx_cost = options_.stack.TxCost(wire);
  const uint32_t parked = conn->Park(std::move(msg));
  sim_.ScheduleAfter(delay + tx_cost,
                     [conn, parked] { conn->Send(parked); });
  ArmTimeout(cookie, op.attempts, delay + tx_cost);
}

ReflexClient::PendingOp ReflexClient::TakeOp(uint64_t cookie, uint32_t slot) {
  pending_.Erase(cookie);
  return ops_.Take(slot);
}

void ReflexClient::FailPending(PendingOp&& op, core::ReqStatus status) {
  sim_.Cancel(op.watchdog);
  ++fault_stats_.failures;
  if (failures_metric_ != nullptr) failures_metric_->Increment();
  IoResult result;
  result.status = status;
  result.issue_time = op.issue_time;
  result.complete_time = sim_.Now();
  // The trace never completed; drop it rather than reporting a
  // partial span as a finished request.
  op.promise.Set(result);
}

void ReflexClient::ReconnectConnection(int conn_index) {
  conn_timeouts_[conn_index] = 0;
  ++fault_stats_.reconnects;
  // Model of a reconnect: the TCP session is re-established in place.
  // Requests lost on the old incarnation are covered by their own
  // timeout watchdogs.
  connections_[static_cast<size_t>(conn_index)]->tcp()->Reopen();
}

void ReflexClient::OnResponse(const core::ResponseMsg& resp) {
  const bool is_control = resp.type == core::RespType::kRegistered ||
                          resp.type == core::RespType::kUnregistered;
  // Every data response carries the serving thread's queue depth;
  // surface it before any resolution/dedup logic so even stale
  // duplicates refresh the load estimate.
  if (!is_control && hint_listener_) hint_listener_(resp.queue_depth_hint);
  if (is_control) {
    auto it = pending_control_.find(resp.cookie);
    REFLEX_CHECK(it != pending_control_.end());
    sim::Promise<core::ResponseMsg> promise = std::move(it->second);
    pending_control_.erase(it);
    const sim::TimeNs delay =
        options_.stack.SampleDeliveryDelay(rng_) +
        options_.stack.RxCost(core::kRegisterMsgBytes);
    sim_.ScheduleAfter(delay, [promise, resp]() mutable {
      promise.Set(resp);
    });
    return;
  }

  const uint32_t slot = pending_.Find(resp.cookie);
  if (slot == sim::FlatIndex::kNone) {
    // With retries enabled a late duplicate can arrive after the op
    // was resolved by an earlier response or a timeout; drop it.
    // Without retries an unknown cookie is a protocol violation.
    REFLEX_CHECK(retries_enabled());
    ++fault_stats_.stale_responses;
    return;
  }

  if (retries_enabled()) {
    const PendingOp& live = ops_[slot];
    conn_timeouts_[live.conn_index] = 0;
    // Transient server-side refusals: retry idempotent reads before
    // surfacing the error.
    if (live.type == core::ReqType::kRead &&
        (resp.status == core::ReqStatus::kDeviceError ||
         resp.status == core::ReqStatus::kOutOfResources) &&
        live.attempts <= options_.retry.max_retries) {
      Retransmit(resp.cookie, BackoffDelay(live.attempts));
      return;
    }
  }

  PendingOp op = TakeOp(resp.cookie, slot);
  // The op resolved: release its timeout watchdog instead of leaving a
  // dead event queued until it would have fired.
  sim_.Cancel(op.watchdog);
  // The only write into caller memory: a live op resolving with data.
  // Stale duplicates and ops already failed by timeout returned above.
  if (resp.status == core::ReqStatus::kOk && op.data != nullptr &&
      resp.data != nullptr) {
    std::memcpy(op.data, resp.data.get(),
                static_cast<size_t>(op.sectors) * core::kSectorBytes);
  }
  if (op.wire != nullptr) RecycleBuffer(op.sectors, std::move(op.wire));

  // Client-side receive processing: interrupt/scheduling delay (Linux
  // stacks) plus per-message stack cost and payload copy.
  const sim::TimeNs delay = options_.stack.SampleDeliveryDelay(rng_) +
                            options_.stack.RxCost(op.payload_bytes);
  sim::Promise<IoResult> promise = std::move(op.promise);
  const sim::TimeNs issue_time = op.issue_time;
  const core::ReqStatus status = resp.status;
  sim_.ScheduleAfter(delay, [promise, issue_time, status,
                             trace = std::move(op.trace),
                             this]() mutable {
    IoResult result;
    result.status = status;
    result.issue_time = issue_time;
    result.complete_time = sim_.Now();
    if (trace) {
      trace->Mark(obs::Stage::kClientDone, sim_.Now());
      server_.tracer().Finish(*trace);
    }
    promise.Set(result);
  });
}

}  // namespace reflex::client
