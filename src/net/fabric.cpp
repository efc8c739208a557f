#include "net/fabric.hpp"

#include <cassert>
#include <stdexcept>

#include "net/nic.hpp"
#include "net/socket.hpp"
#include "os/node.hpp"

namespace rdmamon::net {

Fabric::Fabric(sim::Simulation& simu, FabricConfig cfg)
    : simu_(simu), cfg_(cfg), fault_rng_(cfg.fault_seed) {}

Fabric::~Fabric() = default;

Nic& Fabric::attach(os::Node& node) {
  node.id = static_cast<int>(nodes_.size());
  nodes_.push_back(&node);
  nics_.push_back(std::make_unique<Nic>(*this, node));
  faults_.emplace_back();
  frozen_rx_.emplace_back();
  return *nics_.back();
}

Nic& Fabric::nic(int node_id) {
  return *nics_.at(static_cast<std::size_t>(node_id));
}

os::Node& Fabric::node(int node_id) {
  return *nodes_.at(static_cast<std::size_t>(node_id));
}

Connection& Fabric::connect(os::Node& a, os::Node& b) {
  if (a.id < 0 || b.id < 0) {
    throw std::logic_error("Fabric::connect: attach both nodes first");
  }
  conns_.push_back(std::make_unique<Connection>(
      *this, a, b, static_cast<std::uint64_t>(conns_.size())));
  return *conns_.back();
}

std::uint32_t Fabric::park(Message msg) {
  std::uint32_t slot = free_slot_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    free_slot_ = in_flight_[slot].next_free;
  }
  in_flight_[slot].msg = std::move(msg);
  return slot;
}

void Fabric::release(std::uint32_t slot) {
  InFlight& f = in_flight_[slot];
  f.msg.payload.reset();
  f.next_free = free_slot_;
  free_slot_ = slot;
}

std::size_t Fabric::messages_in_flight() const {
  std::size_t free = 0;
  for (std::uint32_t s = free_slot_; s != kNoSlot;
       s = in_flight_[s].next_free) {
    ++free;
  }
  return in_flight_.size() - free;
}

void Fabric::ship(std::uint32_t slot) {
  const Message& msg = in_flight_[slot].msg;
  // A packet to or from a crashed node never makes it onto the wire; a
  // degraded link may eat it. Loss is sampled at ship time so the RNG
  // consumption order is a deterministic function of traffic order.
  if (fault_at(msg.src_node).crashed || fault_at(msg.dst_node).crashed ||
      sample_link_drop(msg.src_node, msg.dst_node)) {
    release(slot);
    return;
  }
  // Propagation through the non-blocking switch (plus degradation).
  const sim::Duration lat =
      cfg_.prop_latency + link_extra(msg.src_node, msg.dst_node);
  simu_.after(lat, [this, slot] { arrive(slot); });
}

void Fabric::arrive(std::uint32_t slot) {
  const int dst = in_flight_[slot].msg.dst_node;
  NodeFaultState& f = fault_at(dst);
  if (f.crashed) {  // died while the packet was in flight
    release(slot);
    return;
  }
  if (f.frozen) {
    // Host hung: the packet waits at the ingress port until unfreeze.
    frozen_rx_[static_cast<std::size_t>(dst)].push_back(slot);
    return;
  }
  nic(dst).rx(slot);
}

void Fabric::deliver_to_socket(std::uint32_t slot) {
  Message msg = std::move(in_flight_[slot].msg);
  // Free the slot before delivery: the woken receiver may send at once.
  release(slot);
  Connection& c = *conns_.at(static_cast<std::size_t>(msg.conn));
  c.endpoint(msg.dst_side).deliver(std::move(msg));
}

// --- fault-injection hooks ----------------------------------------------------

NodeFaultState& Fabric::fault_at(int node_id) {
  return faults_.at(static_cast<std::size_t>(node_id));
}

const NodeFaultState& Fabric::fault_state(int node_id) const {
  return faults_.at(static_cast<std::size_t>(node_id));
}

void Fabric::inject_crash(int node_id) {
  fault_at(node_id).crashed = true;
  // Packets parked at a frozen ingress die with the node.
  auto& held = frozen_rx_[static_cast<std::size_t>(node_id)];
  for (const std::uint32_t slot : held) release(slot);
  held.clear();
}

void Fabric::inject_recover(int node_id) { fault_at(node_id).crashed = false; }

void Fabric::inject_freeze(int node_id) { fault_at(node_id).frozen = true; }

void Fabric::inject_unfreeze(int node_id) {
  NodeFaultState& f = fault_at(node_id);
  if (!f.frozen) return;
  f.frozen = false;
  // The backlog bursts into the receive path at the unfreeze instant —
  // the post-hang interrupt storm a real host sees.
  auto& held = frozen_rx_[static_cast<std::size_t>(node_id)];
  for (const std::uint32_t slot : held) nic(node_id).rx(slot);
  held.clear();
}

void Fabric::inject_link_fault(int node_id, sim::Duration extra_latency,
                               double loss) {
  NodeFaultState& f = fault_at(node_id);
  f.link_extra_latency = extra_latency;
  f.link_loss = loss;
}

void Fabric::clear_link_fault(int node_id) {
  inject_link_fault(node_id, {}, 0.0);
}

sim::Duration Fabric::link_extra(int src, int dst) const {
  return fault_state(src).link_extra_latency +
         fault_state(dst).link_extra_latency;
}

bool Fabric::sample_link_drop(int src, int dst) {
  const double loss = fault_state(src).link_loss + fault_state(dst).link_loss;
  if (loss <= 0.0) return false;  // healthy path: no RNG consumed
  return fault_rng_.chance(loss);
}

}  // namespace rdmamon::net
