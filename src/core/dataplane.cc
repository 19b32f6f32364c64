#include "core/dataplane.h"

#include <algorithm>
#include <utility>

#include "core/reflex_server.h"
#include "sim/fault.h"
#include "sim/logging.h"

namespace reflex::core {

namespace {

// CPU cost constants of the ReFlex dataplane (calibrated in DESIGN.md
// section 5 to reproduce 850K IOPS/core, ~20% of cycles in TCP, and
// 2-8% in QoS scheduling).

/** Fixed cost of one polling iteration that found work. */
constexpr sim::TimeNs kPollFixed = 600;

/** TCP/IP receive processing per message. */
constexpr sim::TimeNs kTcpRxPerMsg = 130;

/** Message parse + access-control + protocol handling per request
 * (libix event dispatch plus the user-level server code). */
constexpr sim::TimeNs kParsePerMsg = 380;

/** Per-request QoS admission check (token spend). */
constexpr sim::TimeNs kSchedAdmissionPerReq = 50;

/** Per-request NVMe submission (command build + doorbell). */
constexpr sim::TimeNs kSubmitPerReq = 150;

/** NVMe completion handling per request. */
constexpr sim::TimeNs kCompletionPerReq = 300;

/** TCP/IP transmit processing per response. */
constexpr sim::TimeNs kTcpTxPerMsg = 130;

/** QoS scheduling round: fixed + per-tenant cost. */
constexpr sim::TimeNs kSchedRoundBase = 300;
constexpr sim::TimeNs kSchedPerTenant = 60;

/**
 * When tenants have queued demand waiting for tokens and the thread
 * would otherwise idle, the thread re-runs the scheduler after this
 * fixed delay (ArmRescheduleTimer). Nothing scales it to the tenants'
 * SLOs.
 */
constexpr sim::TimeNs kIdleReschedDelay = sim::Micros(5);

/**
 * LLC pressure model (Figure 6c): effective last-level-cache budget
 * for connection state on this thread, and the extra per-message
 * cost when all state misses.
 */
constexpr int64_t kLlcBytes = int64_t{7} * 1024 * 1024;
constexpr sim::TimeNs kLlcMissPenaltyPerMsg = 350;

}  // namespace

uint32_t ServerConnection::Park(RequestMsg msg) {
  return server_->parked_requests_.Add(std::move(msg));
}

void ServerConnection::Send(uint32_t slot) {
  DataplaneThread* thread = thread_;
  const uint32_t wire =
      server_->parked_requests_[slot].WireBytes(kSectorBytes);
  if (!tcp_->SendToServer(wire, [thread, this, slot] {
        thread->EnqueueRx(this, slot);
      })) {
    server_->parked_requests_.Take(slot);
  }
}

DataplaneThread::DataplaneThread(sim::Simulator& sim, ReflexServer& server,
                                 int index, flash::FlashDevice& device,
                                 SchedulerShared& shared,
                                 const RequestCostModel& cost_model,
                                 QosScheduler::Config qos_config)
    : sim_(sim),
      server_(server),
      index_(index),
      device_(device),
      qp_(device.AllocQueuePair()),
      max_batch_(server.options().max_batch),
      // Datagram processing skips stream reassembly, ACK generation and
      // congestion-control bookkeeping: roughly half the per-message
      // protocol cost (section 4.1: a lighter transport improves both
      // tail latency and throughput).
      rx_per_msg_(server.options().transport == net::Transport::kUdp
                      ? kTcpRxPerMsg / 2
                      : kTcpRxPerMsg),
      tx_per_msg_(server.options().transport == net::Transport::kUdp
                      ? kTcpTxPerMsg / 2
                      : kTcpTxPerMsg),
      scheduler_(shared, cost_model, qos_config) {
  if (qp_ == nullptr) {
    REFLEX_FATAL("device out of hardware queue pairs for thread %d", index);
  }
  rx_batch_.reserve(static_cast<size_t>(max_batch_));
  cq_batch_.reserve(static_cast<size_t>(max_batch_));
  scheduler_.set_neg_limit_callback(
      [this](Tenant& t) { server_.control_plane().OnNegLimit(t); });
}

DataplaneThread::~DataplaneThread() {
  if (loop_active_ && loop_handle_) {
    // The loop is parked on its wake future or a Delay whose resume
    // event will never run (the server is being torn down and the
    // simulation will not advance past it). Destroy the suspended
    // frame explicitly; with suspend_never at final_suspend the frame
    // only self-destructs when the body finishes, which a parked loop
    // never does. Any already-queued resume for this frame is dead --
    // the simulator must not run again after the server is destroyed.
    loop_active_ = false;
    loop_handle_.destroy();
  }
  if (qp_ != nullptr && qp_->Outstanding() == 0) {
    device_.FreeQueuePair(qp_);
  }
}

void DataplaneThread::Start() {
  REFLEX_CHECK(!running_);
  running_ = true;
  if (!ever_started_) {
    ever_started_ = true;
    start_time_ = sim_.Now();
  }
  // If Shutdown was followed by Start before the old coroutine
  // observed running_ == false, that loop simply keeps going; only
  // spawn a fresh one once the previous loop has fully unwound.
  if (!loop_active_) RunLoop();
}

void DataplaneThread::Shutdown() {
  running_ = false;
  // Release the idle-reschedule timer instead of letting it fire into
  // a stopped thread. Wake() deliberately does NOT cancel it: an armed
  // timer keeps its original deadline across wake/sleep transitions,
  // and re-arming on the next idle period would shift polling-round
  // timing (and with it every exported latency figure).
  if (resched_armed_) {
    sim_.Cancel(resched_timer_);
    resched_armed_ = false;
  }
  Wake();
}

void DataplaneThread::EnqueueRx(ServerConnection* conn, uint32_t slot) {
  const RequestMsg& msg = server_.parked_requests_[slot];
  if (msg.trace) msg.trace->Mark(obs::Stage::kServerRx, sim_.Now());
  rx_ring_.push_back(RxItem{conn, slot});
  Wake();
}

void DataplaneThread::AdoptTenant(Tenant* tenant) {
  scheduler_.AddTenant(tenant);
  tenant->set_thread_index(index_);
}

void DataplaneThread::DropTenant(Tenant* tenant) {
  scheduler_.RemoveTenant(tenant);
  sim::Ring<PendingIo> queue = tenant->TakeQueue();
  while (!queue.empty()) FailIo(queue.pop_front(), ReqStatus::kNoSuchTenant);
}

void DataplaneThread::Wake() {
  if (idle_) {
    idle_ = false;
    // Resume through the event queue, as a fulfilled future would.
    std::coroutine_handle<> h = std::exchange(idle_waiter_, nullptr);
    sim_.ScheduleAfter(0, [h] { h.resume(); });
  }
}

void DataplaneThread::ArmRescheduleTimer() {
  if (resched_armed_) return;
  resched_armed_ = true;
  resched_timer_ = sim_.ScheduleAfter(kIdleReschedDelay, [this] {
    resched_armed_ = false;
    if (running_) Wake();
  });
}

double DataplaneThread::LlcFactor() const {
  const int64_t per_conn =
      server_.options().transport == net::Transport::kTcp
          ? net::TcpConnection::kStateBytes
          : net::TcpConnection::kUdpStateBytes;
  const int64_t state_bytes =
      static_cast<int64_t>(server_.NumConnections()) * per_conn;
  if (state_bytes <= kLlcBytes) return 0.0;
  return 1.0 - static_cast<double>(kLlcBytes) /
                   static_cast<double>(state_bytes);
}

sim::Task DataplaneThread::RunLoop() {
  loop_active_ = true;
  co_await sim::SelfHandle(&loop_handle_);
  while (running_) {
    if (rx_ring_.empty() && cq_ring_.empty()) {
      // Nothing to poll. A real dataplane would spin; we sleep until a
      // packet or completion arrives (equivalent timing, no wasted
      // simulation events). If tenants still have queued demand that
      // is waiting for tokens, re-run the scheduler soon.
      if (scheduler_.HasPendingDemand()) ArmRescheduleTimer();
      idle_ = true;
      co_await IdleAwaiter{this};
      if (!running_) break;
    }

    // --- Gather this iteration's batch (adaptive, capped at 64) ---
    const int nrx =
        std::min<int>(static_cast<int>(rx_ring_.size()), max_batch_);
    const int ncq =
        std::min<int>(static_cast<int>(cq_ring_.size()), max_batch_);
    for (int i = 0; i < nrx; ++i) rx_batch_.push_back(rx_ring_.pop_front());
    for (int i = 0; i < ncq; ++i) cq_batch_.push_back(cq_ring_.pop_front());

    // --- Charge this iteration's CPU time ---
    const auto llc_extra = static_cast<sim::TimeNs>(
        LlcFactor() * static_cast<double>(kLlcMissPenaltyPerMsg));
    sim::TimeNs tcp_cost = 0;
    sim::TimeNs flash_cost = 0;
    sim::TimeNs parse_cost = 0;
    tcp_cost += nrx * (rx_per_msg_ + llc_extra);
    parse_cost += nrx * kParsePerMsg;
    flash_cost += nrx * kSubmitPerReq;
    flash_cost += ncq * kCompletionPerReq;
    tcp_cost += ncq * (tx_per_msg_ + llc_extra);
    sim::TimeNs sched_cost = nrx * kSchedAdmissionPerReq;
    if (scheduler_.NumTenants() > 0) {
      sched_cost +=
          kSchedRoundBase + scheduler_.NumTenants() * kSchedPerTenant;
    }
    const sim::TimeNs total =
        kPollFixed + tcp_cost + parse_cost + flash_cost + sched_cost;
    co_await sim::Delay(sim_, total);

    stats_.busy_ns += total;
    stats_.tcp_ns += tcp_cost;
    stats_.sched_ns += sched_cost;
    stats_.flash_ns += flash_cost;
    ++stats_.iterations;
    stats_.batch_sum += nrx + ncq;

    // --- Act: parse + enqueue requests ---
    const sim::TimeNs now = sim_.Now();
    for (const RxItem& item : rx_batch_) {
      ++stats_.requests_rx;
      RequestMsg msg = server_.parked_requests_.Take(item.slot);
      if (msg.trace) msg.trace->Mark(obs::Stage::kParsed, now);
      if (msg.type == ReqType::kRegister ||
          msg.type == ReqType::kUnregister) {
        HandleControlMsg(item.conn, msg);
        continue;
      }
      Tenant* tenant = server_.FindTenant(msg.handle);
      if (tenant == nullptr || !tenant->active()) {
        ResponseMsg resp;
        resp.type = msg.type == ReqType::kRead ? RespType::kResponse
                                               : RespType::kWritten;
        resp.status = ReqStatus::kNoSuchTenant;
        resp.handle = msg.handle;
        resp.cookie = msg.cookie;
        SendResponse(item.conn, std::move(resp));
        continue;
      }
      ReqStatus acl = ReqStatus::kOk;
      if (msg.type != ReqType::kBarrier) {
        acl = server_.acl().CheckIo(msg.handle, msg.type, msg.lba,
                                    msg.sectors);
        const uint64_t capacity = device_.profile().capacity_sectors;
        if (acl == ReqStatus::kOk &&
            (msg.sectors == 0 || msg.sectors > capacity ||
             msg.lba > capacity - msg.sectors)) {
          acl = ReqStatus::kInvalidRange;
        }
      }
      if (acl != ReqStatus::kOk) {
        ResponseMsg resp;
        resp.type = msg.type == ReqType::kRead ? RespType::kResponse
                                               : RespType::kWritten;
        resp.status = acl;
        resp.handle = msg.handle;
        resp.cookie = msg.cookie;
        SendResponse(item.conn, std::move(resp));
        continue;
      }
      // Server-level fault injection: a request that passed admission
      // may still be refused, modeling dataplane allocation failures
      // and device errors detected before submission.
      if (server_.fault_plan() != nullptr && msg.type != ReqType::kBarrier) {
        sim::FaultPlan& plan = *server_.fault_plan();
        ReqStatus forced = ReqStatus::kOk;
        if (plan.Roll(sim::FaultKind::kServerDeviceError)) {
          forced = ReqStatus::kDeviceError;
        } else if (plan.Roll(sim::FaultKind::kServerOutOfResources)) {
          forced = ReqStatus::kOutOfResources;
        }
        if (forced != ReqStatus::kOk) {
          ResponseMsg resp;
          resp.type = msg.type == ReqType::kRead ? RespType::kResponse
                                                 : RespType::kWritten;
          resp.status = forced;
          resp.handle = msg.handle;
          resp.cookie = msg.cookie;
          SendResponse(item.conn, std::move(resp));
          continue;
        }
      }
      // Migration range gates: a range being copied away tracks
      // concurrent writes (dirty marking + in-flight accounting); a
      // moved range bounces stale-epoch requests so the client
      // refreshes its map and reissues against the new owner.
      int first_gate = -1;
      int last_gate = -1;
      if (msg.type != ReqType::kBarrier && server_.HasRangeGates()) {
        const ReqStatus gs =
            server_.CheckRangeGates(msg, &first_gate, &last_gate);
        if (gs != ReqStatus::kOk) {
          ResponseMsg resp;
          resp.type = msg.type == ReqType::kRead ? RespType::kResponse
                                                 : RespType::kWritten;
          resp.status = gs;
          resp.handle = msg.handle;
          resp.cookie = msg.cookie;
          SendResponse(item.conn, std::move(resp));
          continue;
        }
      }
      PendingIo io;
      io.msg = std::move(msg);
      io.conn = item.conn;
      io.first_gate = first_gate;
      io.last_gate = last_gate;
      // Route to the tenant's owning thread (tenants may have been
      // rebalanced after the connection was opened).
      DataplaneThread& owner = server_.thread(tenant->thread_index());
      owner.scheduler_.Enqueue(now, tenant, std::move(io));
      if (&owner != this) owner.Wake();
    }

    // --- QoS scheduling round (Algorithm 1) ---
    if (scheduler_.NumTenants() > 0) {
      ++stats_.sched_rounds;
      scheduler_.RunRound(now, [this](Tenant& t, PendingIo&& io) {
        SubmitToFlash(t, std::move(io));
      });
    }

    // --- Completions: build and transmit responses ---
    for (CqItem& item : cq_batch_) {
      FlashIo done = flash_ios_.Take(item.slot);
      Tenant* tenant = done.tenant;
      PendingIo& io = done.io;
      // An I/O counts as completed (for barriers) once its response is
      // on the wire, so barrier acks can never overtake it.
      --tenant->inflight;
      const int64_t bytes = static_cast<int64_t>(io.msg.sectors) * kSectorBytes;
      tenant->inflight_bytes -= bytes;
      tenant->completed_bytes += bytes;
      const bool is_read = io.msg.type == ReqType::kRead;
      if (is_read) {
        ++tenant->completed_reads;
      } else {
        ++tenant->completed_writes;
      }
      ResponseMsg resp;
      resp.type = is_read ? RespType::kResponse : RespType::kWritten;
      resp.status = item.completion.status == flash::FlashStatus::kOk
                        ? ReqStatus::kOk
                        : ReqStatus::kDeviceError;
      resp.handle = tenant->handle();
      resp.cookie = io.msg.cookie;
      resp.sectors = io.msg.sectors;
      // A successful read hands the pages it pinned at submit back to
      // the client inside the response; nothing is copied here.
      if (is_read && resp.status == ReqStatus::kOk) {
        resp.pins = std::move(item.completion.pins);
      }
      io.MarkStage(obs::Stage::kTxQueued, sim_.Now());
      SendResponse(io.conn, std::move(resp));
      if (io.first_gate >= 0) server_.OnGatedIoDone(io);
    }
    rx_batch_.clear();
    cq_batch_.clear();
  }
  // Falling off the end self-destroys the frame (final_suspend is
  // suspend_never); clear the handle so the destructor cannot
  // double-destroy it.
  loop_handle_ = nullptr;
  loop_active_ = false;
}

void DataplaneThread::HandleControlMsg(ServerConnection* conn,
                                       const RequestMsg& msg) {
  SendResponse(conn, server_.HandleRegisterMsg(conn, msg));
}

void DataplaneThread::SubmitToFlash(Tenant& tenant, PendingIo&& io) {
  if (io.msg.type == ReqType::kBarrier) {
    // The scheduler releases a barrier only once the tenant has no
    // in-flight I/O; acknowledge it to the client.
    ResponseMsg resp;
    resp.type = RespType::kBarrierDone;
    resp.status = ReqStatus::kOk;
    resp.handle = tenant.handle();
    resp.cookie = io.msg.cookie;
    io.MarkStage(obs::Stage::kTxQueued, sim_.Now());
    SendResponse(io.conn, std::move(resp));
    return;
  }
  ++stats_.flash_submitted;
  io.MarkStage(obs::Stage::kSubmitted, sim_.Now());
  flash::FlashCommand cmd;
  cmd.op = io.msg.type == ReqType::kRead ? flash::FlashOp::kRead
                                         : flash::FlashOp::kWrite;
  cmd.lba = io.msg.lba;
  cmd.sectors = io.msg.sectors;
  cmd.data = io.msg.data.get();
  cmd.pin = io.msg.wants_data;
  cmd.cookie = io.msg.cookie;
  ++tenant.inflight;
  tenant.inflight_bytes +=
      static_cast<int64_t>(cmd.sectors) * kSectorBytes;
  const uint32_t slot = flash_ios_.Add(FlashIo{&tenant, std::move(io)});
  const bool ok = device_.Submit(
      qp_, cmd, [this, slot](const flash::FlashCompletion& c) {
        flash_ios_[slot].io.MarkStage(obs::Stage::kFlashDone, sim_.Now());
        cq_ring_.push_back(CqItem{slot, c});
        Wake();
      });
  if (!ok) {
    // Ranges were validated at parse time, so a failed submission
    // means the hardware queue pair is full.
    --tenant.inflight;
    tenant.inflight_bytes -=
        static_cast<int64_t>(cmd.sectors) * kSectorBytes;
    FailIo(flash_ios_.Take(slot).io, ReqStatus::kOutOfResources);
  }
}

uint32_t DataplaneThread::QueueDepthHint() const {
  // Everything a newly-arriving request would queue behind on this
  // thread: unparsed receives, scheduler-queued requests, device
  // submissions in flight and completions awaiting TX.
  uint64_t depth = rx_ring_.size() + cq_ring_.size();
  depth += static_cast<uint64_t>(scheduler_.QueuedRequests());
  if (qp_ != nullptr) depth += static_cast<uint64_t>(qp_->Outstanding());
  return static_cast<uint32_t>(depth);
}

void DataplaneThread::SendResponse(ServerConnection* conn, ResponseMsg resp) {
  ++stats_.responses_tx;
  if (resp.status != ReqStatus::kOk) {
    ++stats_.error_responses;
    Tenant* tenant = server_.FindTenant(resp.handle);
    if (tenant != nullptr) ++tenant->errors;
  }
  resp.queue_depth_hint = QueueDepthHint();
  const uint32_t wire = resp.WireBytes(kSectorBytes);
  conn->tcp()->SendToClient(wire, [conn, r = std::move(resp)] {
    if (conn->on_response) conn->on_response(r);
  });
}

void DataplaneThread::FailIo(const PendingIo& io, ReqStatus status) {
  ResponseMsg resp;
  resp.type = io.msg.type == ReqType::kRead ? RespType::kResponse
                                            : RespType::kWritten;
  resp.status = status;
  resp.handle = io.msg.handle;
  resp.cookie = io.msg.cookie;
  io.MarkStage(obs::Stage::kTxQueued, sim_.Now());
  SendResponse(io.conn, std::move(resp));
  if (io.first_gate >= 0) server_.OnGatedIoDone(io);
}

}  // namespace reflex::core
