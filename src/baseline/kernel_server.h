#ifndef REFLEX_BASELINE_KERNEL_SERVER_H_
#define REFLEX_BASELINE_KERNEL_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "baseline/device_session.h"
#include "flash/flash_device.h"
#include "net/network.h"
#include "net/stack_costs.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/task.h"

namespace reflex::baseline {

/**
 * Cost parameters of a Linux-based remote storage system: a server
 * process using the kernel network stack, and a client-side access
 * path. Two presets reproduce the paper's software baselines:
 *
 *  - Libaio(): the "lightweight remote storage server that maximizes
 *    performance on Linux" -- libevent for connection handling and
 *    libaio for asynchronous Flash access (~75K IOPS/core);
 *  - Iscsi(): Linux open-iscsi + LIO -- heavyweight PDU processing and
 *    extra data copies on both sides (~70K IOPS/core, 2.8x unloaded
 *    read latency).
 */
struct BaselineCosts {
  /** Server kernel network stack (incl. interrupt coalescing). */
  net::StackCosts server_stack = net::StackCosts::LinuxEpoll();

  /** Event-loop dispatch per request (libevent). */
  sim::TimeNs server_dispatch = sim::TimeNs(900);

  /** Asynchronous submit / completion-reap per request (libaio). */
  sim::TimeNs server_submit = sim::TimeNs(1400);
  sim::TimeNs server_reap = sim::TimeNs(1200);

  /** Storage-protocol processing per request (iSCSI PDU handling). */
  sim::TimeNs server_protocol_rx = 0;
  sim::TimeNs server_protocol_tx = 0;

  /** Extra data copies beyond the socket copy (iSCSI SCSI buffers). */
  double server_extra_copy_ns_per_byte = 0.0;

  /** Client network stack. */
  net::StackCosts client_stack = net::StackCosts::IxDataplane();

  /** Extra client-side per-request costs (SCSI midlayer, block). */
  sim::TimeNs client_submit_extra = 0;
  sim::TimeNs client_complete_extra = 0;
  double client_extra_copy_ns_per_byte = 0.0;

  int server_threads = 1;

  /** The libaio+libevent baseline with a configurable client stack. */
  static BaselineCosts Libaio(net::StackCosts client_stack,
                              int server_threads = 1);

  /** Linux iSCSI (kernel initiator + LIO-style target). */
  static BaselineCosts Iscsi(int server_threads = 1);
};

/**
 * A remote Flash service over the Linux kernel stack: requests travel
 * client -> TCP -> server event loop -> Flash -> back. Server threads
 * are FIFO CPU resources, so per-core IOPS ceilings and queueing
 * latency under load emerge naturally (Figure 4 "Libaio-nT"). One
 * lane per client connection.
 */
class KernelStorageServer : public DeviceSession {
 public:
  KernelStorageServer(sim::Simulator& sim, net::Network& net,
                      net::Machine* client_machine,
                      net::Machine* server_machine,
                      flash::FlashDevice& device, BaselineCosts costs,
                      int num_connections, uint64_t seed = 55);
  ~KernelStorageServer() override;

 private:
  sim::Task DoIo(int conn_index, bool is_read, uint64_t lba,
                 uint32_t sectors, uint8_t* data,
                 sim::Promise<client::IoResult> promise) override;

  BaselineCosts costs_;
  sim::Rng rng_;
  flash::QueuePair* qp_;
  std::vector<std::unique_ptr<net::TcpConnection>> conns_;
  std::vector<sim::TimeNs> server_core_free_;
};

}  // namespace reflex::baseline

#endif  // REFLEX_BASELINE_KERNEL_SERVER_H_
