#ifndef REFLEX_NET_NETWORK_H_
#define REFLEX_NET_NETWORK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/stack_costs.h"
#include "sim/histogram.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace reflex::sim {
class FaultPlan;
}  // namespace reflex::sim

namespace reflex::net {

class Network;
class TcpConnection;

/**
 * State of a machine's physical link. A link can be taken down by
 * overlapping kNetLinkFlap fault windows; it is up only when no window
 * holds it down. While down, every message sent from or to the machine
 * is dropped (senders see the drop; reliable callers must retry).
 */
class Link {
 public:
  bool up() const { return down_count_ == 0; }

 private:
  friend class Network;
  int down_count_ = 0;
};

/**
 * Transport used by a connection. The paper ships TCP ("the most
 * heavy-weight protocol used in datacenters ... a conservative choice
 * that defines a lower bound on ReFlex performance") and names UDP as
 * the future lighter option; both are modeled here.
 */
enum class Transport : uint8_t { kTcp = 0, kUdp = 1 };

/**
 * A host on the simulated network. Each machine has one full-duplex
 * NIC; its tx and rx sides are independent FIFO serialization
 * resources, which is how line-rate ceilings and NIC-level queueing
 * emerge (e.g. the 10GbE saturation in the paper's Figure 7a).
 */
class Machine {
 public:
  const std::string& name() const { return name_; }
  int id() const { return id_; }
  const NicSpec& nic() const { return nic_; }

  /** Bytes transmitted / received (wire bytes, incl. frame overhead). */
  int64_t tx_bytes() const { return tx_bytes_; }
  int64_t rx_bytes() const { return rx_bytes_; }

  /** This machine's physical link (down during link-flap windows). */
  const Link& link() const { return link_; }

 private:
  friend class Network;
  friend class TcpConnection;
  Machine(int id, std::string name, NicSpec nic)
      : id_(id), name_(std::move(name)), nic_(nic) {}

  int id_;
  std::string name_;
  NicSpec nic_;
  sim::TimeNs tx_free_ = 0;
  sim::TimeNs rx_free_ = 0;
  int64_t tx_bytes_ = 0;
  int64_t rx_bytes_ = 0;
  Link link_;
};

/**
 * Star-topology network: every machine connects to one switch. This
 * matches the paper's testbed (hosts on an Arista 7050S-64).
 */
class Network {
 public:
  /**
   * @param switch_latency store-and-forward plus fabric latency.
   * @param propagation one-way cable propagation per hop.
   */
  explicit Network(sim::Simulator& sim,
                   sim::TimeNs switch_latency = sim::Micros(1.0),
                   sim::TimeNs propagation = sim::Micros(0.3))
      : sim_(sim),
        switch_latency_(switch_latency),
        propagation_(propagation) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /** Adds a host. The returned pointer is owned by the network. */
  Machine* AddMachine(const std::string& name, NicSpec nic = NicSpec());

  sim::Simulator& sim() { return sim_; }

  /**
   * Every ReflexServer on this fabric takes a ticket at construction;
   * the holder of the newest one reports the fabric's counts in its
   * registry, so summing the registries of all servers counts the
   * fabric once.
   */
  int TakeReporterTicket() { return ++reporter_tickets_; }
  bool IsReporter(int ticket) const { return ticket == reporter_tickets_; }

  /**
   * Attaches a fault-injection plan (null detaches). Connections roll
   * kNetDrop / kNetReset per message, scoped to the sending machine's
   * id, and kNetLinkFlap windows take machine links down for their
   * duration (id = machine id, or kAnyId for every machine).
   */
  void SetFaultPlan(sim::FaultPlan* plan);

  /** Messages delivered (every send that was not dropped). */
  int64_t messages() const { return messages_; }
  /** Wire bytes of those messages, frame headers included. */
  int64_t wire_bytes() const { return wire_bytes_; }
  /**
   * NIC-to-NIC time of each message: serialization + propagation +
   * switch + NIC latency + link queueing (the wire share of net_in /
   * net_out; endpoint stack time is charged by the endpoints).
   */
  const sim::Histogram& wire_ns() const { return wire_ns_; }

  /** Messages dropped by fault injection (drops + messages sent while
   * the connection was reset or a link was down). */
  int64_t dropped_messages() const { return dropped_messages_; }
  /** Connections forcibly reset by fault injection. */
  int64_t connection_resets() const { return connection_resets_; }

 private:
  friend class TcpConnection;

  sim::Simulator& sim_;
  sim::TimeNs switch_latency_;
  sim::TimeNs propagation_;
  std::vector<std::unique_ptr<Machine>> machines_;
  sim::FaultPlan* fault_plan_ = nullptr;
  bool flap_listener_added_ = false;
  int reporter_tickets_ = 0;
  int64_t messages_ = 0;
  int64_t wire_bytes_ = 0;
  sim::Histogram wire_ns_;
  int64_t dropped_messages_ = 0;
  int64_t connection_resets_ = 0;
};

/**
 * A reliable, in-order message channel between two machines, modeling
 * an established TCP connection. Loss and congestion control are not
 * modeled (datacenter links; the paper's experiments are loss-free),
 * but serialization, propagation, switch latency, NIC latency, frame
 * segmentation (jumbo frames) and per-frame header overhead are.
 *
 * A send is asynchronous: the callback fires at the moment the last
 * frame of the message has been received by the destination NIC.
 * Stack processing above the NIC (interrupts, syscalls, copies) is
 * charged by the caller using StackCosts, because it depends on who
 * owns the endpoint (dataplane server vs Linux client).
 *
 * The callback is forwarded to the simulator as-is: one that captures
 * at most 56 bytes stays in the event's inline storage, so a send on
 * the request path never allocates. Pass nullptr for a message nobody
 * waits on.
 */
class TcpConnection {
 public:
  TcpConnection(Network& net, Machine* client, Machine* server,
                Transport transport = Transport::kTcp);

  /**
   * Client-to-server message. Returns false if the message was
   * dropped (fault injection, a reset connection or a downed link);
   * the callback is then destroyed without running.
   */
  template <typename F>
  bool SendToServer(uint32_t bytes, F&& on_rx_nic) {
    return Send(client_, server_, bytes, std::forward<F>(on_rx_nic));
  }

  /** Server-to-client message; see SendToServer(). */
  template <typename F>
  bool SendToClient(uint32_t bytes, F&& on_rx_nic) {
    return Send(server_, client_, bytes, std::forward<F>(on_rx_nic));
  }

  Machine* client() const { return client_; }
  Machine* server() const { return server_; }

  /** Messages in flight in either direction. */
  int64_t messages_in_flight() const { return in_flight_; }

  /**
   * Effective cache footprint of one connection's state (TCP control
   * block plus rx/tx buffers touched per message). Used by the
   * server's LLC-pressure model (paper section 5.5: performance drops
   * once connection state exceeds the last-level cache, ~5K
   * connections on the paper's testbed). UDP flows keep almost no
   * per-connection state.
   */
  static constexpr uint32_t kStateBytes = 8192;
  static constexpr uint32_t kUdpStateBytes = 512;

  Transport transport() const { return transport_; }

  /** Per-frame wire overhead for this transport (headers). */
  uint32_t FrameOverhead() const {
    return transport_ == Transport::kTcp ? 78 : 46;
  }

  uint32_t StateBytes() const {
    return transport_ == Transport::kTcp ? kStateBytes : kUdpStateBytes;
  }

  /**
   * True once the connection has been reset (by a kNetReset fault or
   * an explicit Close). Every subsequent Send is silently dropped;
   * endpoints detect the reset via timeouts and reconnect.
   */
  bool closed() const { return closed_; }
  void Close() { closed_ = true; }
  /** Re-establishes a reset connection in place (models reconnect). */
  void Reopen() { closed_ = false; }

 private:
  template <typename F>
  bool Send(Machine* from, Machine* to, uint32_t bytes, F&& on_rx_nic) {
    sim::TimeNs arrival = 0;
    if (!Transmit(from, to, bytes, &arrival)) return false;
    if constexpr (std::is_null_pointer_v<std::decay_t<F>>) {
      net_.sim_.ScheduleAt(arrival, [this] { --in_flight_; });
    } else {
      net_.sim_.ScheduleAt(arrival,
                           [this, cb = std::forward<F>(on_rx_nic)]() mutable {
                             --in_flight_;
                             cb();
                           });
    }
    return true;
  }
  /**
   * Serializes one message through both NICs and the switch. Returns
   * false if it was dropped; otherwise counts it in flight and sets
   * *arrival to the time its last frame reaches the receiver NIC.
   */
  bool Transmit(Machine* from, Machine* to, uint32_t bytes,
                sim::TimeNs* arrival);
  /** Rolls connection faults; true means the message was dropped. */
  bool DropFaulted(Machine* from, Machine* to);

  Network& net_;
  Machine* client_;
  Machine* server_;
  Transport transport_;
  int64_t in_flight_ = 0;
  bool closed_ = false;
};

}  // namespace reflex::net

#endif  // REFLEX_NET_NETWORK_H_
