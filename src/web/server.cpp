#include "web/server.hpp"

namespace rdmamon::web {

// Requests and replies ride inline in socket messages: no allocation.
static_assert(net::Payload::fits_inline<Request>);
static_assert(net::Payload::fits_inline<Reply>);

WebServer::WebServer(net::Fabric& fabric, os::Node& node, ServerConfig cfg)
    : fabric_(&fabric), node_(&node), cfg_(cfg) {}

void WebServer::listen(net::Socket& server_end) {
  node_->spawn("httpd-rx", [this, sock = &server_end](os::SimThread& t) {
    return rx_body(t, sock);
  });
  if (!workers_started_) {
    workers_started_ = true;
    for (int i = 0; i < cfg_.workers; ++i) {
      node_->spawn("httpd-w" + std::to_string(i),
                   [this](os::SimThread& t) { return worker_body(t); });
    }
  }
}

os::Program WebServer::rx_body(os::SimThread& self, net::Socket* sock) {
  for (;;) {
    net::Message m;
    co_await sock->recv(self, m);
    queue_.push_back(
        PendingWork{m.payload.get<Request>(), sock});
    work_wq_.notify_one();
  }
}

os::Program WebServer::worker_body(os::SimThread& self) {
  for (;;) {
    while (queue_.empty()) co_await os::WaitOn{&work_wq_};
    PendingWork work = std::move(queue_.front());
    queue_.pop_front();
    node_->stats().alloc_memory(kPerRequestMemory);
    const ServiceDemand& d = work.req.demand;
    if (d.cpu_php.ns > 0) co_await os::Compute{d.cpu_php};
    if (d.cpu_db.ns > 0) co_await os::Compute{d.cpu_db};
    if (d.io_wait.ns > 0) co_await os::SleepFor{d.io_wait};
    node_->stats().free_memory(kPerRequestMemory);
    Reply reply;
    reply.id = work.req.id;
    reply.query_class = work.req.query_class;
    co_await work.reply_to->send(self, d.reply_bytes, reply);
    ++completed_;
  }
}

}  // namespace rdmamon::web
