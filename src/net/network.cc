#include "net/network.h"

#include <algorithm>

#include "sim/fault.h"
#include "sim/logging.h"

namespace reflex::net {

Machine* Network::AddMachine(const std::string& name, NicSpec nic) {
  const int id = static_cast<int>(machines_.size());
  machines_.emplace_back(new Machine(id, name, nic));
  return machines_.back().get();
}

void Network::SetFaultPlan(sim::FaultPlan* plan) {
  fault_plan_ = plan;
  if (plan == nullptr || flap_listener_added_) return;
  flap_listener_added_ = true;
  plan->AddWindowListener(
      [this](sim::FaultKind kind, uint64_t id, bool active) {
        if (kind != sim::FaultKind::kNetLinkFlap) return;
        const int delta = active ? 1 : -1;
        if (id == sim::FaultPlan::kAnyId) {
          for (auto& m : machines_) m->link_.down_count_ += delta;
        } else if (id < machines_.size()) {
          machines_[id]->link_.down_count_ += delta;
        }
      });
}

TcpConnection::TcpConnection(Network& net, Machine* client, Machine* server,
                             Transport transport)
    : net_(net), client_(client), server_(server), transport_(transport) {
  REFLEX_CHECK(client != nullptr && server != nullptr);
  REFLEX_CHECK(client != server);
}

bool TcpConnection::Transmit(Machine* from, Machine* to, uint32_t bytes,
                             sim::TimeNs* arrival) {
  REFLEX_CHECK(bytes > 0);
  sim::Simulator& sim = net_.sim_;
  // One branch on the hot path: with no plan attached and the
  // connection open, fault handling costs a single predictable test.
  if (closed_ || net_.fault_plan_ != nullptr) {
    if (DropFaulted(from, to)) return false;
  }
  ++in_flight_;

  // Segment the message into jumbo frames and push each through the
  // sender NIC (FIFO serialization), the switch, and the receiver NIC
  // (FIFO serialization). The message is delivered when its last frame
  // finishes on the receiver side.
  uint32_t remaining = bytes;
  int64_t total_wire_bytes = 0;
  sim::TimeNs last_arrival = sim.Now();
  while (remaining > 0) {
    const uint32_t payload = std::min(remaining, from->nic_.mtu_payload);
    remaining -= payload;
    const uint32_t wire_bytes = payload + FrameOverhead();
    const auto tx_ser = static_cast<sim::TimeNs>(
        wire_bytes * from->nic_.NsPerByte());
    const sim::TimeNs tx_start = std::max(sim.Now(), from->tx_free_);
    const sim::TimeNs tx_end = tx_start + tx_ser;
    from->tx_free_ = tx_end;
    from->tx_bytes_ += wire_bytes;

    const sim::TimeNs at_switch = tx_end + from->nic_.nic_latency +
                                  net_.propagation_ + net_.switch_latency_;
    // Receiver link serialization (store-and-forward at the switch
    // egress port feeding the receiver NIC).
    const auto rx_ser = static_cast<sim::TimeNs>(
        wire_bytes * to->nic_.NsPerByte());
    const sim::TimeNs rx_start =
        std::max(at_switch + net_.propagation_, to->rx_free_);
    to->rx_free_ = rx_start + rx_ser;  // link occupancy only
    to->rx_bytes_ += wire_bytes;
    total_wire_bytes += wire_bytes;
    last_arrival = to->rx_free_ + to->nic_.nic_latency;
  }

  ++net_.messages_;
  net_.wire_bytes_ += total_wire_bytes;
  net_.wire_ns_.Record(last_arrival - sim.Now());

  *arrival = last_arrival;
  return true;
}

bool TcpConnection::DropFaulted(Machine* from, Machine* to) {
  sim::FaultPlan* plan = net_.fault_plan_;
  if (!closed_ && plan != nullptr &&
      plan->Roll(sim::FaultKind::kNetReset,
                 static_cast<uint64_t>(from->id_))) {
    closed_ = true;
    ++net_.connection_resets_;
  }
  const bool link_down =
      plan != nullptr && (!from->link_.up() || !to->link_.up());
  const bool dropped =
      closed_ || link_down ||
      (plan != nullptr &&
       plan->Roll(sim::FaultKind::kNetDrop, static_cast<uint64_t>(from->id_)));
  if (dropped) {
    ++net_.dropped_messages_;
  }
  return dropped;
}

}  // namespace reflex::net
