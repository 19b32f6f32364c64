#include "baseline/kernel_server.h"

#include <algorithm>

#include "core/protocol.h"
#include "sim/logging.h"

namespace reflex::baseline {

BaselineCosts BaselineCosts::Libaio(net::StackCosts client_stack,
                                    int server_threads) {
  BaselineCosts c;
  c.server_stack = net::StackCosts::LinuxEpoll();
  c.server_dispatch = sim::Micros(2.0);
  c.server_submit = sim::Micros(2.2);
  c.server_reap = sim::Micros(2.0);
  c.client_stack = client_stack;
  c.server_threads = server_threads;
  return c;
}

BaselineCosts BaselineCosts::Iscsi(int server_threads) {
  BaselineCosts c;
  c.server_stack = net::StackCosts::LinuxEpoll();
  c.server_dispatch = sim::Micros(0.9);
  c.server_submit = sim::Micros(1.4);
  c.server_reap = sim::Micros(1.2);
  c.server_protocol_rx = sim::Micros(1.5);
  c.server_protocol_tx = sim::Micros(1.5);
  c.server_extra_copy_ns_per_byte = 0.1;
  // Kernel initiator: SCSI midlayer + block layer + blocking caller.
  c.client_stack = net::StackCosts::LinuxBlocking();
  c.client_submit_extra = sim::Micros(20);
  c.client_complete_extra = sim::Micros(35);
  c.client_extra_copy_ns_per_byte = 0.1;
  c.server_threads = server_threads;
  return c;
}

KernelStorageServer::KernelStorageServer(
    sim::Simulator& sim, net::Network& net, net::Machine* client_machine,
    net::Machine* server_machine, flash::FlashDevice& device,
    BaselineCosts costs, int num_connections, uint64_t seed)
    : DeviceSession(sim, device, num_connections),
      costs_(costs),
      rng_(seed, "kernel_server"),
      qp_(device.AllocQueuePair()),
      server_core_free_(costs.server_threads, 0) {
  REFLEX_CHECK(qp_ != nullptr);
  REFLEX_CHECK(costs_.server_threads >= 1);
  for (int i = 0; i < num_connections; ++i) {
    conns_.emplace_back(std::make_unique<net::TcpConnection>(
        net, client_machine, server_machine));
  }
}

KernelStorageServer::~KernelStorageServer() {
  if (qp_->Outstanding() == 0) device_.FreeQueuePair(qp_);
}

sim::Task KernelStorageServer::DoIo(int conn_index, bool is_read,
                                    uint64_t lba, uint32_t sectors,
                                    uint8_t* data,
                                    sim::Promise<client::IoResult> promise) {
  const sim::TimeNs issue_time = sim_.Now();
  const uint32_t bytes = sectors * core::kSectorBytes;
  const uint32_t payload_in = is_read ? 0 : bytes;   // client -> server
  const uint32_t payload_out = is_read ? bytes : 0;  // server -> client
  net::TcpConnection& conn = *conns_[conn_index];

  // --- Client submit path ---
  co_await sim::Delay(
      sim_, costs_.client_stack.TxCost(core::kRequestHeaderBytes +
                                       payload_in) +
                costs_.client_submit_extra +
                static_cast<sim::TimeNs>(
                    costs_.client_extra_copy_ns_per_byte * payload_in));

  // --- Request over the wire ---
  sim::VoidPromise at_server(sim_);
  conn.SendToServer(core::kRequestHeaderBytes + payload_in,
                    [at_server]() mutable { at_server.Set(sim::Unit{}); });
  co_await at_server.GetFuture();

  // --- Server receive/submit path (interrupts + core FIFO) ---
  const int core = conn_index % costs_.server_threads;
  const sim::TimeNs after_irq =
      sim_.Now() + costs_.server_stack.SampleDeliveryDelay(rng_);
  const sim::TimeNs rx_cpu =
      costs_.server_stack.RxCost(payload_in) + costs_.server_dispatch +
      costs_.server_protocol_rx + costs_.server_submit +
      static_cast<sim::TimeNs>(costs_.server_extra_copy_ns_per_byte *
                               payload_in);
  const sim::TimeNs rx_start =
      std::max(after_irq, server_core_free_[core]);
  server_core_free_[core] = rx_start + rx_cpu;
  co_await sim::Delay(sim_, server_core_free_[core] - sim_.Now());

  // --- Flash access ---
  sim::Promise<core::ReqStatus> device_done(sim_);
  auto device_future = device_done.GetFuture();
  const bool ok = device_.Submit(
      qp_, Command(is_read, lba, sectors, data),
      [device_done, data](const flash::FlashCompletion& c) mutable {
        CopyOut(c, data);
        device_done.Set(c.status == flash::FlashStatus::kOk
                            ? core::ReqStatus::kOk
                            : core::ReqStatus::kDeviceError);
      });
  core::ReqStatus status = core::ReqStatus::kOutOfResources;
  if (ok) status = co_await device_future;

  // --- Server completion/transmit path ---
  const sim::TimeNs tx_cpu =
      costs_.server_reap + costs_.server_protocol_tx +
      costs_.server_stack.TxCost(payload_out) +
      static_cast<sim::TimeNs>(costs_.server_extra_copy_ns_per_byte *
                               payload_out);
  const sim::TimeNs tx_start = std::max(sim_.Now(), server_core_free_[core]);
  server_core_free_[core] = tx_start + tx_cpu;
  co_await sim::Delay(sim_, server_core_free_[core] - sim_.Now());

  // --- Response over the wire ---
  sim::VoidPromise at_client(sim_);
  conn.SendToClient(core::kResponseHeaderBytes + payload_out,
                    [at_client]() mutable { at_client.Set(sim::Unit{}); });
  co_await at_client.GetFuture();

  // --- Client completion path ---
  co_await sim::Delay(
      sim_, costs_.client_stack.SampleDeliveryDelay(rng_) +
                costs_.client_stack.RxCost(payload_out) +
                costs_.client_complete_extra +
                static_cast<sim::TimeNs>(
                    costs_.client_extra_copy_ns_per_byte * payload_out));

  client::IoResult result;
  result.status = status;
  result.issue_time = issue_time;
  result.complete_time = sim_.Now();
  promise.Set(result);
}

}  // namespace reflex::baseline
