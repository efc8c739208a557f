#include "monitor/push.hpp"

#include "net/nic.hpp"

namespace rdmamon::monitor {

MulticastSubscriber::MulticastSubscriber(os::Node& frontend, net::Socket& rx_end) {
  frontend.spawn("push-sub", [this, sock = &rx_end](os::SimThread& t) {
    return rx_body(t, sock);
  });
}

MonitorSample MulticastSubscriber::last(sim::TimePoint now) const {
  MonitorSample s;
  s.info = info_;
  s.ok = has_;
  // Reading the local copy is free; both request and retrieval collapse
  // to "now", and staleness comes entirely from the push pipeline.
  s.requested_at = now;
  s.retrieved_at = now;
  return s;
}

os::Program MulticastSubscriber::rx_body(os::SimThread& self, net::Socket* sock) {
  for (;;) {
    net::Message m;
    co_await sock->recv(self, m);
    info_ = m.payload.get<os::LoadSnapshot>();
    has_ = true;
    ++updates_;
  }
}

MulticastPublisher::MulticastPublisher(net::Fabric& fabric, os::Node& backend,
                             MulticastConfig cfg)
    : fabric_(&fabric), backend_(&backend), cfg_(cfg) {}

MulticastSubscriber& MulticastPublisher::subscribe(os::Node& frontend) {
  net::Connection& conn = fabric_->connect(*backend_, frontend);
  subscriber_ends_.push_back(&conn.end_a());
  subscribers_.push_back(
      std::make_unique<MulticastSubscriber>(frontend, conn.end_b()));
  return *subscribers_.back();
}

void MulticastPublisher::start() {
  backend_->spawn("push-pub",
                  [this](os::SimThread& t) { return publisher_body(t); });
}

os::Program MulticastPublisher::publisher_body(os::SimThread& self) {
  for (;;) {
    co_await os::ComputeKernel{backend_->procfs().read_cost()};
    const os::LoadSnapshot snap = backend_->procfs().snapshot();
    // Hardware multicast: one send syscall, the switch replicates. We pay
    // the syscall/copy once and give each subscriber its own wire copy.
    if (!subscriber_ends_.empty()) {
      co_await subscriber_ends_.front()->send(self, kMulticastPacketBytes,
                                              snap);
      for (std::size_t i = 1; i < subscriber_ends_.size(); ++i) {
        // Replicated by the switch: no extra syscall cost, direct TX.
        net::Socket* s = subscriber_ends_[i];
        net::Message m;
        m.src_node = backend_->id;
        m.dst_node = s->remote_node_id();
        m.bytes = kMulticastPacketBytes;
        m.payload = snap;
        s->inject_tx(std::move(m));
      }
      ++pushes_;
    }
    co_await os::SleepFor{cfg_.period};
  }
}

}  // namespace rdmamon::monitor
