#include "lb/dispatcher.hpp"

namespace rdmamon::lb {

Dispatcher::Dispatcher(net::Fabric& fabric, os::Node& frontend,
                       LoadBalancer& lb, DispatcherConfig cfg)
    : fabric_(&fabric), frontend_(&frontend), lb_(&lb), cfg_(cfg) {
  collector_.bind(frontend.simu(), [this](telemetry::Registry& reg) {
    telemetry::Labels l;
    if (!cfg_.telemetry_instance.empty()) {
      l.add("frontend", cfg_.telemetry_instance);
    }
    reg.gauge("lb.dispatch.forwarded", l).set(static_cast<double>(forwarded_));
    reg.gauge("lb.dispatch.rejected", l).set(static_cast<double>(rejected_));
    reg.gauge("lb.dispatch.failed_over", l)
        .set(static_cast<double>(failed_over_));
    reg.gauge("lb.dispatch.pending", l)
        .set(static_cast<double>(pending_.size()));
  });
}

void Dispatcher::add_backend(web::WebServer& server) {
  net::Connection& conn = fabric_->connect(*frontend_, server.node());
  backend_socks_.push_back(&conn.end_a());
  per_backend_.push_back(0);
  server.listen(conn.end_b());
  frontend_->spawn("disp-router" + std::to_string(backend_socks_.size()),
                   [this, sock = &conn.end_a()](os::SimThread& t) {
                     return router_body(t, sock);
                   });
}

void Dispatcher::enable_failover() {
  lb_->on_health_change([this](int backend, BackendHealth h) {
    if (h == BackendHealth::Dead) fail_pending_to(backend);
  });
}

std::size_t Dispatcher::fail_pending_to(int backend) {
  std::size_t failed = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.backend != backend) {
      ++it;
      continue;
    }
    // Answer from the front end directly (no back-end involved). The
    // injected reply skips the forwarder thread's send cost: failover is
    // a control-plane action taken inside the poller, not a data-plane
    // hop worth modelling.
    web::Reply rej;
    rej.id = it->first;
    rej.rejected = true;
    net::Message m;
    m.bytes = 256;
    m.payload = rej;
    it->second.client->inject_tx(std::move(m));
    ++failed_over_;
    ++failed;
    it = pending_.erase(it);
  }
  return failed;
}

net::Socket& Dispatcher::add_client(os::Node& client_node) {
  net::Connection& conn = fabric_->connect(client_node, *frontend_);
  frontend_->spawn("disp-fwd" + std::to_string(clients_++),
                   [this, sock = &conn.end_b()](os::SimThread& t) {
                     return forwarder_body(t, sock);
                   });
  return conn.end_a();
}

os::Program Dispatcher::forwarder_body(os::SimThread& self,
                                       net::Socket* from_client) {
  for (;;) {
    net::Message m;
    co_await from_client->recv(self, m);
    web::Request req = m.payload.get<web::Request>();
    co_await os::Compute{kDispatchCpu};
    const int backend = lb_->pick();
    if (admission_ != nullptr &&
        !admission_->admit(lb_->index_of(backend))) {
      ++rejected_;
      web::Reply rej;
      rej.id = req.id;
      rej.query_class = req.query_class;
      rej.rejected = true;
      co_await from_client->send(self, 256, rej);
      continue;
    }
    pending_[req.id] = PendingEntry{from_client, backend};
    ++forwarded_;
    ++per_backend_[static_cast<std::size_t>(backend)];
    co_await backend_socks_[static_cast<std::size_t>(backend)]->send(
        self, req.request_bytes, req);
  }
}

os::Program Dispatcher::router_body(os::SimThread& self,
                                    net::Socket* from_backend) {
  for (;;) {
    net::Message m;
    co_await from_backend->recv(self, m);
    const web::Reply reply = m.payload.get<web::Reply>();
    auto it = pending_.find(reply.id);
    if (it == pending_.end()) continue;  // duplicate/late/failed-over; drop
    net::Socket* to_client = it->second.client;
    pending_.erase(it);
    co_await to_client->send(self, m.bytes, reply);
  }
}

}  // namespace rdmamon::lb
