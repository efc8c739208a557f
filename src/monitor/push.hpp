// The Section 6 alternative the paper discusses and rejects: the back end
// *pushes* its status to a group of front-end dispatchers using hardware
// multicast. Scalable, but it uses channel semantics — a back-end thread
// must run to send, and every front end pays receive processing — so "such
// solutions are not completely one-sided, removing some of the benefits of
// our design". Implemented here to quantify that trade-off (see
// bench_ablation).
//
// Distinct from the one-sided RDMA-WRITE push scheme (monitor/inbox.hpp):
// that one keeps the receive side passive (the back end DMA-writes into a
// front-end-registered inbox slot), so only the *sender* needs a thread.
#pragma once

#include <memory>
#include <vector>

#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/socket.hpp"
#include "os/node.hpp"

namespace rdmamon::monitor {

/// Wire size of one multicast status packet.
constexpr std::size_t kMulticastPacketBytes = 256;

struct MulticastConfig {
  /// Push period (the multicast analogue of the async schemes' T).
  sim::Duration period = sim::msec(50);
};

/// Front-end side: keeps the last pushed snapshot; reading it is free and
/// instantaneous (it is already local), but its age is bounded only by the
/// push period plus transport and scheduling delays on BOTH sides.
class MulticastSubscriber {
 public:
  MulticastSubscriber(os::Node& frontend, net::Socket& rx_end);

  bool has_data() const { return has_; }
  /// Last received snapshot as a sample read at `now`: requested_at and
  /// retrieved_at are both `now` (the local copy is free to read), so
  /// its staleness is the whole push pipeline's delay.
  MonitorSample last(sim::TimePoint now) const;
  std::uint64_t updates() const { return updates_; }

 private:
  os::Program rx_body(os::SimThread& self, net::Socket* sock);

  bool has_ = false;
  os::LoadSnapshot info_;
  std::uint64_t updates_ = 0;
};

/// Back-end side: a daemon thread reads /proc every period and multicasts
/// the snapshot to all subscribers in one NIC transmit.
class MulticastPublisher {
 public:
  MulticastPublisher(net::Fabric& fabric, os::Node& backend,
                     MulticastConfig cfg);

  /// Subscribes a front end; returns its subscriber handle.
  MulticastSubscriber& subscribe(os::Node& frontend);

  /// Spawns the publisher daemon. Call after all subscriptions.
  void start();

  std::uint64_t pushes() const { return pushes_; }
  os::Node& node() { return *backend_; }

 private:
  os::Program publisher_body(os::SimThread& self);

  net::Fabric* fabric_;
  os::Node* backend_;
  MulticastConfig cfg_;
  std::vector<net::Socket*> subscriber_ends_;  // backend-side endpoints
  std::vector<std::unique_ptr<MulticastSubscriber>> subscribers_;
  std::uint64_t pushes_ = 0;
};

}  // namespace rdmamon::monitor
