// The cluster interconnect: a non-blocking switch connecting every node's
// NIC (the paper's InfiniScale switch + InfiniHost HCAs), plus the
// connection registry for the socket layer.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/qos.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace rdmamon::os {
class Node;
}

namespace rdmamon::net {

class Nic;
class Connection;

/// Interconnect timing/behaviour knobs. Defaults approximate a 4x IB fabric
/// of the paper's era: ~1.25 GB/s links, microsecond-scale switch+wire
/// latency, RDMA READ service a few microseconds.
struct FabricConfig {
  /// One-way propagation (wire + switch) latency.
  sim::Duration prop_latency = sim::usec(1);

  /// Link bandwidth in bytes/second (serialisation on the TX link).
  double bandwidth_bps = 1.25e9;

  /// Target-NIC DMA engine: fixed service cost per RDMA op...
  sim::Duration rdma_dma_base = sim::usec(3);
  /// ...plus per-byte cost of reading/writing host memory.
  double rdma_dma_per_byte_ns = 0.8;

  /// Socket path kernel costs (IPoIB-era protocol stack).
  sim::Duration socket_send_cost = sim::usec(8);
  sim::Duration socket_recv_cost = sim::usec(4);
  /// Per-byte copy cost for socket send/recv.
  double socket_copy_per_byte_ns = 0.2;

  /// Size of the RDMA READ request packet on the wire.
  std::size_t rdma_request_bytes = 32;

  /// RC transport failure budget: an op whose packet is lost or whose
  /// target is dead error-completes (RetryExceeded) after this long —
  /// retry_cnt x local ACK timeout collapsed into one figure.
  sim::Duration rdma_retry_timeout = sim::msec(4);

  /// Bounded NIC connection-context cache (QP contexts at the initiator,
  /// MR entries at the target — the HCA's ICM cache, see net/qpcache.hpp).
  /// 0 keeps the cache unbounded and entirely un-modelled (no penalty, no
  /// accounting): the historical behaviour, and the default so existing
  /// experiments replay byte-identically. Set to the on-chip entry count
  /// to model RDMAvisor-style context thrash at high connection fan-out.
  std::size_t nic_ctx_cache_entries = 0;
  /// Cost of fetching one evicted context from host memory on a miss.
  /// QP-context fetches serialise on the NIC's single fetch engine (the
  /// thrash is a queueing collapse, not just an additive tax); MR fetches
  /// stall the already-serialised DMA engine.
  sim::Duration nic_ctx_miss_penalty = sim::nsec(450);

  /// Per-tenant fabric QoS (token-bucket rate caps + weighted fair
  /// queueing at every NIC's one-sided tx path; see net/qos.hpp).
  /// Disabled by default: no arbiter is built and all one-sided posts
  /// take the historical path byte-identically.
  QosConfig qos;

  /// Seed of the link-loss sampling stream (runs replay bit-for-bit).
  std::uint64_t fault_seed = 0x8d0fb18a12c5e3a7ull;

  /// CPU that takes NetRx interrupts (-1 = round robin). The paper-era
  /// default routes the HCA's interrupts to the second CPU.
  int rx_irq_cpu = 1;

  sim::Duration wire_delay(std::size_t bytes) const {
    return prop_latency +
           sim::nsec(static_cast<std::int64_t>(
               static_cast<double>(bytes) / bandwidth_bps * 1e9));
  }
};

/// Injected fault status of one node (driven by fault::FaultInjector).
/// Crash kills host *and* NIC; freeze hangs the host (no interrupt
/// servicing, so no two-sided progress) while the NIC keeps DMA-ing —
/// the regime where the paper's one-sided monitoring claim bites. Link
/// degradation adds one-way latency and a per-packet loss probability on
/// the node's access link.
struct NodeFaultState {
  bool crashed = false;
  bool frozen = false;
  sim::Duration link_extra_latency{};
  double link_loss = 0.0;
};

/// Owns the NICs and the message-in-flight bookkeeping. Nodes are created
/// by the caller (they carry their own OS config) and attached here.
class Fabric {
 public:
  Fabric(sim::Simulation& simu, FabricConfig cfg);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Creates a NIC for `node` and assigns node.id. Returns the NIC.
  Nic& attach(os::Node& node);

  Nic& nic(int node_id);
  os::Node& node(int node_id);
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Establishes a socket connection between two attached nodes.
  /// Setup handshake latency is not modelled (connections are created
  /// during experiment wiring); both nodes' connection counters bump.
  Connection& connect(os::Node& a, os::Node& b);

  sim::Simulation& simu() { return simu_; }
  const FabricConfig& config() const { return cfg_; }

  // --- fault-injection hooks (see src/fault) -------------------------------
  /// Node dies whole: in-flight and future packets to/from it vanish,
  /// RDMA ops against it error-complete after the retry budget.
  void inject_crash(int node_id);
  /// Node comes back (threads/NIC state survive — the simulator models
  /// reachability, not reboot).
  void inject_recover(int node_id);
  /// Hung kernel: inbound packets queue at the switch port (no interrupt
  /// servicing), but the NIC's DMA engine keeps serving one-sided ops.
  void inject_freeze(int node_id);
  /// Un-hang: queued inbound packets burst into the receive path.
  void inject_unfreeze(int node_id);
  /// Degrades the node's access link: `extra_latency` one-way, `loss`
  /// drop probability per packet (also applied to RDMA request/response).
  void inject_link_fault(int node_id, sim::Duration extra_latency,
                         double loss);
  void clear_link_fault(int node_id);

  const NodeFaultState& fault_state(int node_id) const;
  /// Two-sided messages between Nic::tx and socket delivery (test hook:
  /// crash drops, link loss and frozen ingress must release their slots).
  /// Walks the free list: O(slots), for tests only.
  std::size_t messages_in_flight() const;
  /// Extra one-way latency on src->dst (both endpoints' access links).
  sim::Duration link_extra(int src, int dst) const;
  /// Samples the loss process for one packet on src->dst (advances the
  /// fault RNG; deterministic for a fixed fault_seed and call sequence).
  bool sample_link_drop(int src, int dst);

 private:
  friend class Nic;

  // --- two-sided messages in flight -----------------------------------------
  // From Nic::tx until socket delivery a message lives in a pooled slot of
  // this table; each leg (TX serialisation end, switch arrival, hard-IRQ
  // body, softirq item) is an event capturing only {owner, slot}, so it
  // stays inside InlineFn's inline buffer and the payload is never copied.

  /// Moves `msg` into a free slot (growing the table only past its peak).
  std::uint32_t park(Message msg);
  const Message& parked(std::uint32_t slot) const {
    return in_flight_[slot].msg;
  }
  /// Returns the slot to the free list, dropping its message.
  void release(std::uint32_t slot);
  /// After TX serialisation: fault checks, then propagation to arrive().
  void ship(std::uint32_t slot);
  /// At the destination's ingress port: drop (crashed), hold (frozen) or
  /// hand to the destination NIC's receive path.
  void arrive(std::uint32_t slot);
  /// Once protocol processing has been paid: frees the slot and delivers
  /// the message to its connection endpoint.
  void deliver_to_socket(std::uint32_t slot);

  NodeFaultState& fault_at(int node_id);

  sim::Simulation& simu_;
  FabricConfig cfg_;
  std::vector<os::Node*> nodes_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<NodeFaultState> faults_;
  struct InFlight {
    Message msg;
    std::uint32_t next_free = 0;
  };
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  std::vector<InFlight> in_flight_;
  std::uint32_t free_slot_ = kNoSlot;
  /// Slots held at a frozen node's ingress port, in arrival order.
  std::vector<std::vector<std::uint32_t>> frozen_rx_;
  sim::Rng fault_rng_;
};

}  // namespace rdmamon::net
