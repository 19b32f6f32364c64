#ifndef REFLEX_CORE_DATAPLANE_H_
#define REFLEX_CORE_DATAPLANE_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/qos_scheduler.h"
#include "core/tenant.h"
#include "flash/flash_device.h"
#include "net/network.h"
#include "sim/inline_function.h"
#include "sim/ring.h"
#include "sim/slot_pool.h"
#include "sim/task.h"
#include "sim/time.h"

namespace reflex::core {

class ReflexServer;
class DataplaneThread;

/** Receives a connection's responses at the client NIC. */
using ResponseFn = sim::InlineFunction<void(const ResponseMsg&)>;

/**
 * Server-side endpoint of one client TCP connection. Requests arriving
 * on the connection are processed by the dataplane thread the
 * connection is bound to (the thread of its tenant).
 */
class ServerConnection {
 public:
  net::TcpConnection* tcp() { return tcp_.get(); }
  DataplaneThread* thread() const { return thread_; }
  const std::string& client_name() const { return client_name_; }

  /**
   * Client-side delivery hook: invoked when a response message has
   * fully arrived at the *client* NIC. The client library layers its
   * own stack costs on top before surfacing the completion.
   */
  ResponseFn on_response;

  /**
   * Ingress path used by client libraries, in two steps. Park() puts
   * `msg` in the server's request table and returns its slot; the
   * client charges its transmit cost, then Send(slot) ships the
   * request over the simulated TCP connection, and it is enqueued at
   * the server dataplane when the last frame arrives. Neither event
   * carries the message itself. The slot stays taken until the
   * dataplane parses the request; a message the network drops frees
   * it at once.
   */
  uint32_t Park(RequestMsg msg);
  void Send(uint32_t slot);

 private:
  friend class ReflexServer;
  friend class DataplaneThread;

  ServerConnection(std::unique_ptr<net::TcpConnection> tcp,
                   ReflexServer* server, DataplaneThread* thread,
                   std::string client_name)
      : tcp_(std::move(tcp)),
        server_(server),
        thread_(thread),
        client_name_(std::move(client_name)) {}

  std::unique_ptr<net::TcpConnection> tcp_;
  ReflexServer* server_;
  DataplaneThread* thread_;
  std::string client_name_;
};

/** Cycle-accounting counters for one dataplane thread (section 5.3). */
struct DataplaneStats {
  int64_t iterations = 0;
  int64_t requests_rx = 0;
  int64_t responses_tx = 0;
  /** Responses sent with a non-kOk status (any cause). */
  int64_t error_responses = 0;
  int64_t sched_rounds = 0;
  int64_t flash_submitted = 0;
  sim::TimeNs busy_ns = 0;
  sim::TimeNs tcp_ns = 0;
  sim::TimeNs sched_ns = 0;
  sim::TimeNs flash_ns = 0;  // submit + completion handling
  int64_t batch_sum = 0;     // for mean batch size
};

/**
 * One ReFlex dataplane thread (paper Figure 2): a pinned core with
 * exclusive NIC and NVMe queue pairs, running the two-step
 * run-to-completion loop with adaptive batching, polling, zero-copy
 * and the QoS scheduler.
 */
class DataplaneThread {
 public:
  DataplaneThread(sim::Simulator& sim, ReflexServer& server, int index,
                  flash::FlashDevice& device, SchedulerShared& shared,
                  const RequestCostModel& cost_model,
                  QosScheduler::Config qos_config);
  ~DataplaneThread();

  DataplaneThread(const DataplaneThread&) = delete;
  DataplaneThread& operator=(const DataplaneThread&) = delete;

  /**
   * Starts the polling loop. Restartable: a thread stopped by
   * Shutdown() (control-plane scale-down) can be started again when
   * the server scales back up.
   */
  void Start();

  /** Stops the loop (the thread finishes its current iteration). */
  void Shutdown();

  /** True between Start() and Shutdown(). */
  bool running() const { return running_; }

  int index() const { return index_; }
  QosScheduler& scheduler() { return scheduler_; }
  const DataplaneStats& stats() const { return stats_; }

  /** Network ingress: parked request `slot` arrived at the server NIC. */
  void EnqueueRx(ServerConnection* conn, uint32_t slot);

  /** Moves a tenant (and its queued requests) onto this thread. */
  void AdoptTenant(Tenant* tenant);

  /** Unbinds a tenant; its queued requests are failed back to clients. */
  void DropTenant(Tenant* tenant);

  /** CPU utilization over the thread lifetime. */
  double Utilization(sim::TimeNs now) const {
    return now > start_time_
               ? static_cast<double>(stats_.busy_ns) /
                     static_cast<double>(now - start_time_)
               : 0.0;
  }

  /** Load estimate piggybacked on every response (ResponseMsg::
   * queue_depth_hint): requests queued or in flight on this thread.
   * Also sampled by the cluster autoscaler as its SLO-pressure
   * signal. */
  uint32_t QueueDepthHint() const;

 private:
  /** A received request, still parked in the server's table. */
  struct RxItem {
    ServerConnection* conn;
    uint32_t slot;
  };
  /** A request submitted to the device, until its response is sent. */
  struct FlashIo {
    Tenant* tenant = nullptr;
    PendingIo io;
  };
  struct CqItem {
    uint32_t slot;  // in flash_ios_
    flash::FlashCompletion completion;
  };
  /** Parks the RunLoop coroutine until Wake(). */
  struct IdleAwaiter {
    DataplaneThread* thread;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      thread->idle_waiter_ = h;
    }
    void await_resume() const noexcept {}
  };

  sim::Task RunLoop();
  void Wake();
  void ArmRescheduleTimer();
  double LlcFactor() const;
  void HandleControlMsg(ServerConnection* conn, const RequestMsg& msg);
  void SubmitToFlash(Tenant& tenant, PendingIo&& io);
  void SendResponse(ServerConnection* conn, ResponseMsg resp);
  void FailIo(const PendingIo& io, ReqStatus status);

  sim::Simulator& sim_;
  ReflexServer& server_;
  int index_;
  flash::FlashDevice& device_;
  flash::QueuePair* qp_;
  /** Adaptive batching cap (ServerOptions::max_batch). */
  const int max_batch_;
  /** Transport receive / transmit processing per message, fixed at
   * construction from ServerOptions::transport. */
  const sim::TimeNs rx_per_msg_;
  const sim::TimeNs tx_per_msg_;
  QosScheduler scheduler_;
  DataplaneStats stats_;

  sim::Ring<RxItem> rx_ring_;
  sim::Ring<CqItem> cq_ring_;
  sim::SlotPool<FlashIo> flash_ios_;
  /** One iteration's work, reused and cleared every iteration so no
   * batch keeps a payload alive past the iteration that served it. */
  std::vector<RxItem> rx_batch_;
  std::vector<CqItem> cq_batch_;

  bool running_ = false;
  /** True while a RunLoop coroutine is alive (it may outlive running_
   * by one iteration after Shutdown). */
  bool loop_active_ = false;
  /**
   * The live RunLoop coroutine's own frame handle (captured via
   * sim::SelfHandle, cleared when the loop finishes normally). At
   * destruction the loop is usually still suspended in IdleAwaiter
   * or a Delay whose resume event will never run -- the destructor
   * destroys the frame through this handle so it cannot leak.
   */
  std::coroutine_handle<> loop_handle_;
  bool ever_started_ = false;
  bool idle_ = false;
  bool resched_armed_ = false;
  /** Live idle-reschedule timer (valid while resched_armed_). Cancelled
   * on Shutdown() only; see the comment there for why Wake() keeps it. */
  sim::TimerHandle resched_timer_;
  /** The loop's frame while parked in IdleAwaiter (idle_ is set). */
  std::coroutine_handle<> idle_waiter_;
  sim::TimeNs start_time_ = 0;
};

}  // namespace reflex::core

#endif  // REFLEX_CORE_DATAPLANE_H_
