// Alarm publication: the SLO engine's alarm summary served through a
// registered MR, so "is that front end's view stale?" is itself a
// one-sided RDMA READ — zero CPU on the (possibly unhealthy) target,
// exactly the property the paper argues for and the regime where an
// alarm matters most. Same shape as TelemetrySelfMonitor: a publisher
// thread refreshes the slot; remote readers sample it at the DMA
// instant.
//
//   net::QueuePair qp{fabric.nic(reader.id), alarms.node_id(), cq};
//   co_await net::rdma_read_sync(self, qp, alarms.mr_key(),
//                                alarms.config().slot_bytes, c);
//   auto view = c.data.get<telemetry::AlarmView>();
//
// The publisher also refreshes IMMEDIATELY on every alarm edge (via
// SloEngine::on_edge), so the window in which a remote reader sees a
// pre-breach view is one edge-to-publish copy, not a full period.
#pragma once

#include <cstdint>

#include "net/fabric.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "telemetry/slo.hpp"

namespace rdmamon::monitor {

struct AlarmMonitorConfig {
  /// Periodic refresh of the published view (background heartbeat; the
  /// edge hook republishes out-of-band).
  sim::Duration period = sim::msec(50);
  /// Registered-region size: the wire image of an AlarmView. Remote
  /// READs are charged for this many bytes.
  std::size_t slot_bytes = 512;
  /// CPU charged per publish (view build + copy into the region).
  sim::Duration publish_cost = sim::usec(2);
};

class AlarmMonitor {
 public:
  AlarmMonitor(net::Fabric& fabric, os::Node& owner,
               telemetry::SloEngine& engine, AlarmMonitorConfig cfg = {});
  ~AlarmMonitor();

  AlarmMonitor(const AlarmMonitor&) = delete;
  AlarmMonitor& operator=(const AlarmMonitor&) = delete;

  /// The rkey remote readers target.
  net::MrKey mr_key() const { return mr_key_; }
  /// The node whose NIC serves the region.
  int node_id() const { return owner_->id; }
  const AlarmMonitorConfig& config() const { return cfg_; }

  /// Publishes so far (periodic + edge-triggered).
  std::uint64_t published() const { return published_; }
  /// The view currently in the registered region.
  const telemetry::AlarmView& latest() const { return slot_; }

  /// Kills the publisher (the region keeps serving its last contents —
  /// the frozen-host regime the alarm exists for).
  void stop();

 private:
  os::Program publisher_body(os::SimThread& self);
  void publish_now();

  os::Node* owner_;
  telemetry::SloEngine* engine_;
  AlarmMonitorConfig cfg_;
  telemetry::AlarmView slot_;  ///< the registered region's logical content
  net::MrKey mr_key_{};
  std::uint64_t published_ = 0;
  std::uint64_t edge_hook_ = 0;
  os::SimThread* publisher_ = nullptr;
};

}  // namespace rdmamon::monitor
