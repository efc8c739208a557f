#include "net/nic.hpp"

#include <utility>

namespace rdmamon::net {

Nic::Nic(Fabric& fabric, os::Node& node) : fabric_(fabric), node_(node) {
  if (fabric.config().nic_ctx_cache_entries > 0) {
    ctx_cache_ =
        std::make_unique<NicCtxCache>(fabric.config().nic_ctx_cache_entries);
  }
  if (fabric.config().qos.enabled) {
    arbiter_ = std::make_unique<TenantArbiter>(
        fabric.simu(), fabric.config().qos, fabric.config().bandwidth_bps);
  }
  // Snapshot-time export of the NIC's always-on introspection counters;
  // a no-op bind when no registry is installed.
  collector_.bind(fabric.simu(), [this](telemetry::Registry& reg) {
    const telemetry::Labels by_node{{"node", node_.name()}};
    reg.gauge("net.nic.tx_packets", by_node)
        .set(static_cast<double>(tx_packets_));
    reg.gauge("net.nic.rx_packets", by_node)
        .set(static_cast<double>(rx_packets_));
    reg.gauge("net.nic.rx_deferred", by_node)
        .set(static_cast<double>(rx_deferred_));
    reg.gauge("net.nic.rdma_served", by_node)
        .set(static_cast<double>(rdma_served_));
    reg.gauge("net.nic.rdma_posted", by_node)
        .set(static_cast<double>(rdma_posted_));
    reg.gauge("net.nic.rdma_wire_bytes", by_node)
        .set(static_cast<double>(rdma_wire_bytes_));
    reg.gauge("net.nic.qpc_hits", by_node)
        .set(static_cast<double>(qpc_hits()));
    reg.gauge("net.nic.qpc_misses", by_node)
        .set(static_cast<double>(qpc_misses()));
    reg.gauge("net.nic.qpc_evictions", by_node)
        .set(static_cast<double>(qpc_evictions()));
    reg.gauge("net.verbs.unsignaled_posted", by_node)
        .set(static_cast<double>(unsignaled_posted_));
    if (arbiter_ != nullptr) {
      // Per-tenant QoS counters, iterated in ascending tenant order so
      // snapshots are deterministic.
      for (const TenantId t : arbiter_->tenants()) {
        const TenantArbiter::Stats s = arbiter_->stats(t);
        telemetry::Labels l = by_node;
        l.add("tenant", std::to_string(t));
        reg.gauge("net.qos.admitted", l).set(static_cast<double>(s.admitted));
        reg.gauge("net.qos.deferred", l).set(static_cast<double>(s.deferred));
        reg.gauge("net.qos.dropped", l).set(static_cast<double>(s.dropped));
        reg.gauge("net.qos.admitted_bytes", l)
            .set(static_cast<double>(s.admitted_bytes));
        reg.gauge("net.qos.queue_depth", l)
            .set(static_cast<double>(s.queue_depth));
      }
    }
  });
  fr_reg_ = telemetry::Registry::of(fabric.simu());
}

telemetry::FlightRing* Nic::flight_ring() {
  if (fr_ == nullptr && fr_reg_ != nullptr) {
    fr_ = fr_reg_->recorder().ring("net." + node_.name());
  }
  return fr_;
}

// --- two-sided ----------------------------------------------------------------

void Nic::tx(Message msg) {
  ++tx_packets_;
  sim::Simulation& simu = fabric_.simu();
  node_.stats().on_net_bytes(msg.bytes, simu.now());
  // FIFO serialisation on the TX link.
  const sim::TimePoint start =
      tx_busy_ > simu.now() ? tx_busy_ : simu.now();
  const sim::Duration ser = sim::nsec(static_cast<std::int64_t>(
      static_cast<double>(msg.bytes) / fabric_.config().bandwidth_bps * 1e9));
  tx_busy_ = start + ser;
  const std::uint32_t slot = fabric_.park(std::move(msg));
  simu.at(tx_busy_, [this, slot] { fabric_.ship(slot); });
}

int Nic::pick_rx_cpu() const {
  // The paper-era default routes the HCA's interrupts to the second CPU;
  // a one-CPU node takes them on its only CPU.
  return node_.config().cpus > 1 ? 1 : 0;
}

void Nic::rx(std::uint32_t slot) {
  ++rx_packets_;
  sim::Simulation& simu = fabric_.simu();
  node_.stats().on_net_bytes(fabric_.parked(slot).bytes, simu.now());
  const int cpu = pick_rx_cpu();
  os::IrqController& irq = node_.irq();
  // Keep-up heuristic: protocol processing runs inline in IRQ context
  // while the receive path is keeping up (short HW queue, empty softirq
  // backlog); otherwise only the ack runs in the handler and the packet is
  // deferred to ksoftirqd — which competes with runnable threads.
  const bool inline_ok =
      irq.softirq_backlog(cpu) == 0 &&
      irq.pending_hard(cpu, os::IrqType::NetRx) < os::kRxInlineBudget;
  if (inline_ok) {
    irq.raise(
        cpu, os::IrqType::NetRx,
        [this, slot] { fabric_.deliver_to_socket(slot); },
        /*extra_cost=*/os::kSoftirqPacketCost);
  } else {
    ++rx_deferred_;
    irq.raise(cpu, os::IrqType::NetRx,
              [this, cpu, slot] {
                node_.irq().raise_softirq(
                    cpu, os::SoftirqItem{os::kSoftirqPacketCost,
                                         [this, slot] {
                                           fabric_.deliver_to_socket(slot);
                                         }});
              });
  }
}

// --- one-sided ------------------------------------------------------------------

void count_doorbell(Nic& nic, std::size_t wrs) {
  telemetry::Registry* reg = telemetry::Registry::of(nic.fabric_.simu());
  if (reg == nullptr) return;
  Nic::DoorbellMetrics& m = nic.doorbell_;
  if (m.reg != reg) {
    const telemetry::Labels by_node{{"node", nic.node_.name()}};
    m.reg = reg;
    m.doorbells = &reg->counter("net.doorbells", by_node);
    m.posts = &reg->counter("net.posts", by_node);
    m.wrs = &reg->histogram("net.doorbell.wrs", by_node);
  }
  m.doorbells->inc();
  m.posts->inc(wrs);
  m.wrs->observe(static_cast<double>(wrs));
}

MrKey Nic::register_mr(std::size_t bytes, std::function<Payload()> reader,
                       bool remote_writable,
                       std::function<void(const Payload&)> writer,
                       TenantId tenant) {
  MemoryRegion mr;
  mr.rkey = next_rkey_++;
  mr.bytes = bytes;
  mr.remote_writable = remote_writable;
  mr.tenant = tenant;
  mr.reader = std::move(reader);
  mr.writer = std::move(writer);
  const MrKey key{mr.rkey};
  regions_.emplace(mr.rkey, std::move(mr));
  return key;
}

bool Nic::deregister_mr(MrKey key) {
  if (ctx_cache_) ctx_cache_->erase(kMrKeyBit | key.key);
  return regions_.erase(key.key) > 0;
}

sim::Duration Nic::charge_qpc(std::uint64_t ctx_id, TenantId tenant) {
  if (ctx_cache_ == nullptr) return sim::Duration{};
  if (ctx_cache_->access(kQpcKey | ctx_id, tenant)) return sim::Duration{};
  // Miss: the context is fetched from host memory through the NIC's one
  // fetch engine — concurrent misses queue behind each other, so a post
  // burst over more contexts than the cache holds collapses into a
  // serial context-reload train (the RDMAvisor thrash regime).
  sim::Simulation& simu = fabric_.simu();
  const sim::TimePoint start =
      ctx_fetch_busy_ > simu.now() ? ctx_fetch_busy_ : simu.now();
  ctx_fetch_busy_ = start + kNicCtxMissPenalty;
  return ctx_fetch_busy_ - simu.now();
}

sim::Duration Nic::charge_mr(std::uint32_t rkey) {
  if (ctx_cache_ == nullptr) return sim::Duration{};
  // The MR entry is owned by the region's registering tenant (the region
  // may already be gone — the rkey resolves later — in which case the
  // entry is charged to the system plane).
  auto it = regions_.find(rkey);
  const TenantId owner = it != regions_.end() ? it->second.tenant : 0;
  if (ctx_cache_->access(kMrKeyBit | rkey, owner)) return sim::Duration{};
  // MR entry miss stalls the (already serialised) DMA engine while the
  // entry is fetched; the caller adds this to the service time.
  return kNicCtxMissPenalty;
}

void Nic::rdma_read(int target_node, MrKey rkey, std::size_t len,
                    std::uint64_t wr_id, WrRoute route) {
  post(/*is_write=*/false, target_node, rkey, Payload{}, len, wr_id,
       std::move(route));
}

void Nic::rdma_write(int target_node, MrKey rkey, Payload value,
                     std::size_t len, std::uint64_t wr_id, WrRoute route) {
  post(/*is_write=*/true, target_node, rkey, std::move(value), len, wr_id,
       std::move(route));
}

void Nic::post(bool is_write, int target_node, MrKey rkey, Payload value,
               std::size_t len, std::uint64_t wr_id, WrRoute route) {
  std::uint32_t slot = free_wr_;
  if (slot == kNoSlot) {
    slot = static_cast<std::uint32_t>(wrs_.size());
    wrs_.emplace_back();
  } else {
    free_wr_ = wrs_[slot].next_free;
  }
  WrRecord& r = wrs_[slot];
  r.route = std::move(route);
  r.c.wr_id = wr_id;
  r.c.posted = fabric_.simu().now();
  r.value = std::move(value);
  r.rkey = rkey;
  r.len = len;
  r.target = target_node;
  r.is_write = is_write;
  ++rdma_posted_;
  if (telemetry::FlightRing* fr = flight_ring()) {
    fr->record(is_write ? "write.post" : "read.post", target_node,
                static_cast<std::int64_t>(wr_id), static_cast<double>(len));
  }
  // Wire footprint: a READ is a request out and the payload back; a WRITE
  // carries the payload out and an ack back.
  const std::size_t footprint = (is_write ? 2 : 1) * kRdmaRequestBytes + len;
  rdma_wire_bytes_ += footprint;
  if (arbiter_ != nullptr) {
    // Fabric QoS: the op's full wire footprint passes the per-tenant
    // token bucket + WFQ arbiter before the wire logic runs. A queue-cap
    // refusal drops the WR; the RC layer error-completes it exactly like
    // a retry-budget exhaustion.
    if (!arbiter_->submit(r.route.ctx->tenant(), footprint,
                          [this, slot] { start(slot); })) {
      fail_after_retries(slot);
    }
    return;
  }
  start(slot);
}

void Nic::start(std::uint32_t slot) {
  WrRecord& r = wrs_[slot];
  const FabricConfig& cfg = fabric_.config();
  // Dead host at EITHER end or lost request packet: the op can never
  // succeed. The initiator-side check mirrors the socket path (a crashed
  // node's packets vanish both ways) — without it a crashed front end
  // would keep one-sided monitoring through its own NIC.
  if (fabric_.fault_state(node_id()).crashed ||
      fabric_.fault_state(r.target).crashed ||
      fabric_.sample_link_drop(node_id(), r.target)) {
    fail_after_retries(slot);
    return;
  }
  // QP-context cache touch at the initiator: an evicted context delays
  // the request by the (serialised) fetch penalty before it reaches the
  // wire. Zero with the default unbounded cache. A WRITE carries its
  // payload with the request.
  const QpContext& ctx = *r.route.ctx;
  const sim::Duration req =
      charge_qpc(ctx.ctx_id(), ctx.tenant()) +
      cfg.wire_delay(kRdmaRequestBytes + (r.is_write ? r.len : 0)) +
      fabric_.link_extra(node_id(), r.target);
  fabric_.simu().after(req, [this, slot] { arrive(slot); });
}

void Nic::arrive(std::uint32_t slot) {
  const WrRecord& r = wrs_[slot];
  sim::Simulation& s = fabric_.simu();
  const FabricConfig& fc = fabric_.config();
  Nic& target = fabric_.nic(r.target);
  if (fabric_.fault_state(r.target).crashed) {
    // Died while the request was in flight. NOTE: a *frozen* target
    // still serves the read — the DMA engine needs no host CPU, the
    // property the paper's RDMA-Sync scheme exploits.
    fail_after_retries(slot);
    return;
  }
  // DMA engine serialisation at the target NIC (an MR-entry cache miss
  // stalls the engine for the fetch).
  const sim::TimePoint start =
      target.dma_busy_ > s.now() ? target.dma_busy_ : s.now();
  const sim::Duration service =
      target.charge_mr(r.rkey.key) + fc.rdma_dma_base +
      sim::nsec(static_cast<std::int64_t>(static_cast<double>(r.len) *
                                          kRdmaDmaPerByteNs));
  target.dma_busy_ = start + service;
  s.at(target.dma_busy_, [this, slot] { dma(slot); });
}

void Nic::dma(std::uint32_t slot) {
  Nic& target = fabric_.nic(wrs_[slot].target);
  ++target.rdma_served_;
  // Resolve the rkey only now: a region deregistered while the request
  // was on the wire (or queued behind the DMA engine) must fail with
  // InvalidKey — never read or write through a stale entry. A region's
  // reader or writer may run arbitrary code (a writer's change hook can
  // post), so the record is looked up again after it.
  auto it = target.regions_.find(wrs_[slot].rkey.key);
  if (it == target.regions_.end()) {
    wrs_[slot].c.status = WcStatus::InvalidKey;
  } else if (!wrs_[slot].is_write) {
    // THE key semantic: the content is sampled at the DMA instant.
    if (it->second.reader) {
      Payload data = it->second.reader();
      wrs_[slot].c.data = std::move(data);
    }
  } else if (!it->second.remote_writable) {
    // Read-only exposure: the paper's defence for exporting kernel
    // memory. The write is discarded.
    wrs_[slot].c.status = WcStatus::ProtectionError;
  } else if (it->second.writer) {
    const Payload value = std::move(wrs_[slot].value);
    it->second.writer(value);
  }
  // Response (READ payload, WRITE ack) back to the initiator: may die on
  // a lossy return path, or find either host dead meanwhile.
  const WrRecord& r = wrs_[slot];
  if (fabric_.fault_state(r.target).crashed ||
      fabric_.fault_state(node_id()).crashed ||
      fabric_.sample_link_drop(r.target, node_id())) {
    fail_after_retries(slot);
    return;
  }
  const FabricConfig& fc = fabric_.config();
  const sim::Duration resp =
      fc.wire_delay(r.is_write ? kRdmaRequestBytes : r.len) +
      fabric_.link_extra(r.target, node_id());
  fabric_.simu().after(resp, [this, slot] { complete(slot); });
}

void Nic::fail_after_retries(std::uint32_t slot) {
  wrs_[slot].c.status = WcStatus::RetryExceeded;
  fabric_.simu().after(kRdmaRetryTimeout,
                       [this, slot] { complete(slot); });
}

void Nic::complete(std::uint32_t slot) {
  WrRecord& r = wrs_[slot];
  r.c.completed = fabric_.simu().now();
  if (telemetry::FlightRing* fr = flight_ring()) {
    // Every completion path (success, retry-exceeded, invalid key) lands
    // exactly one event with the completion's own timestamp.
    fr->record_at(r.c.completed, r.is_write ? "write.comp" : "read.comp",
                   static_cast<std::int64_t>(r.c.status),
                   static_cast<std::int64_t>(r.c.wr_id),
                   static_cast<double>((r.c.completed - r.c.posted).ns));
  }
  // Free the record before the route runs: retiring may launch a deferred
  // post on this NIC, which reuses the slot.
  WrRoute route = std::move(r.route);
  Completion c = std::move(r.c);
  r.c = Completion{};
  r.value.reset();
  r.next_free = free_wr_;
  free_wr_ = slot;
  route.ctx->retire(*route.cq, route.seq, route.signaled, std::move(c));
}

}  // namespace rdmamon::net
