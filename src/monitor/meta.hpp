// Meta-monitoring: the monitoring plane applied to ITSELF. The front end
// publishes its own telemetry snapshot into a registered memory region on
// its NIC, refreshed by a publisher thread every `period` — exactly the
// paper's RDMA-Async scheme, with the front end in the back-end role and
// the telemetry snapshot as the "load information". Any node can then
// fetch the front end's health (fetch outcome counters, staleness
// percentiles, dispatcher totals, ...) with a one-sided READ that costs
// the front end no CPU — so the monitor stays observable even when the
// front end's host is saturated or its kernel is frozen.
#pragma once

#include <cstdint>

#include "net/fabric.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::monitor {

struct SelfMonitorConfig {
  /// Publisher refresh period (the scheme's T).
  sim::Duration period = sim::msec(50);
  /// Registered-region size: what a wire-format snapshot would occupy.
  /// Remote READs of the region are charged for this many bytes.
  std::size_t slot_bytes = 4096;
  /// CPU charged per refresh (snapshot walk + serialisation into the
  /// registered buffer). The telemetry registry itself never charges
  /// simulated time; the PUBLISHER is a real thread doing real work,
  /// like any RDMA-Async back-end calc thread.
  sim::Duration publish_cost = sim::usec(5);
};

/// Publishes a registry's snapshot through a registered MR on `owner`'s
/// NIC. Readers on other nodes READ it one-sided:
///
///   net::QueuePair qp{fabric.nic(reader.id), meta.node_id(), cq};
///   co_await net::rdma_read_sync(self, qp, meta.mr_key(),
///                                meta.config().slot_bytes, c);
///   auto snap = c.data.get<telemetry::Snapshot>();
class TelemetrySelfMonitor {
 public:
  TelemetrySelfMonitor(net::Fabric& fabric, os::Node& owner,
                       telemetry::Registry& reg,
                       SelfMonitorConfig cfg = {});

  TelemetrySelfMonitor(const TelemetrySelfMonitor&) = delete;
  TelemetrySelfMonitor& operator=(const TelemetrySelfMonitor&) = delete;

  /// The rkey remote readers target.
  net::MrKey mr_key() const { return mr_key_; }
  /// The node whose NIC serves the region.
  int node_id() const { return owner_->id; }
  const SelfMonitorConfig& config() const { return cfg_; }

  /// Refreshes published so far.
  std::uint64_t published() const { return published_; }
  /// The snapshot currently in the registered region (what a remote READ
  /// arriving now would sample).
  const telemetry::Snapshot& latest() const { return slot_; }

  /// Kills the publisher thread (the region keeps serving its last
  /// contents — the frozen-host regime).
  void stop();

 private:
  os::Program publisher_body(os::SimThread& self);

  os::Node* owner_;
  telemetry::Registry* reg_;
  SelfMonitorConfig cfg_;
  telemetry::Snapshot slot_;  ///< the registered region's logical content
  net::MrKey mr_key_{};
  std::uint64_t published_ = 0;
  os::SimThread* publisher_ = nullptr;
};

}  // namespace rdmamon::monitor
