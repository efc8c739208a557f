#include "monitor/alarm.hpp"

#include "net/nic.hpp"
#include "os/thread.hpp"

namespace rdmamon::monitor {

AlarmMonitor::AlarmMonitor(net::Fabric& fabric, os::Node& owner,
                           telemetry::SloEngine& engine,
                           AlarmMonitorConfig cfg)
    : owner_(&owner), engine_(&engine), cfg_(cfg) {
  mr_key_ = fabric.nic(owner.id).register_mr(
      kAlarmSlotBytes, [slot = &slot_] { return net::Payload(*slot); });
  // Edge-triggered out-of-band refresh: runs synchronously inside the
  // engine's evaluate (event context, no thread to charge), so the copy
  // is uncharged — edges are rare by construction and the periodic
  // publisher still pays the modelled cost for the steady state.
  edge_hook_ = engine.on_edge([this](const telemetry::AlarmRecord&) {
    publish_now();
  });
  publisher_ = owner.spawn("alarm-pub", [this](os::SimThread& t) {
    return publisher_body(t);
  });
}

AlarmMonitor::~AlarmMonitor() {
  if (engine_ != nullptr) engine_->remove_on_edge(edge_hook_);
  stop();
}

os::Program AlarmMonitor::publisher_body(os::SimThread& self) {
  for (;;) {
    co_await os::Compute{kAlarmPublishCost};
    publish_now();
    co_await os::SleepFor{cfg_.period};
  }
  (void)self;
}

void AlarmMonitor::publish_now() {
  slot_ = engine_->view();
  ++published_;
}

void AlarmMonitor::stop() {
  if (publisher_ != nullptr) owner_->sched().kill(publisher_);
  publisher_ = nullptr;
}

}  // namespace rdmamon::monitor
