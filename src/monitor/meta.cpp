#include "monitor/meta.hpp"

#include "net/nic.hpp"
#include "os/thread.hpp"

namespace rdmamon::monitor {

TelemetrySelfMonitor::TelemetrySelfMonitor(net::Fabric& fabric,
                                           os::Node& owner,
                                           telemetry::Registry& reg,
                                           SelfMonitorConfig cfg)
    : owner_(&owner), reg_(&reg), cfg_(cfg) {
  // The remote READ samples the slot at the DMA instant, like every other
  // registered region: readers see the last PUBLISHED snapshot, not a
  // fresh one (that asynchrony is the scheme's defining trade-off).
  mr_key_ = fabric.nic(owner.id).register_mr(
      kSelfMonitorSlotBytes, [slot = &slot_] { return net::Payload(*slot); });
  publisher_ = owner.spawn("telemetry-pub", [this](os::SimThread& t) {
    return publisher_body(t);
  });
}

os::Program TelemetrySelfMonitor::publisher_body(os::SimThread& self) {
  for (;;) {
    co_await os::Compute{kSelfMonitorPublishCost};
    slot_ = reg_->snapshot();
    ++published_;
    // The publisher is itself observable through the plane it feeds.
    reg_->counter("meta.published").inc();
    co_await os::SleepFor{cfg_.period};
  }
  (void)self;
}

void TelemetrySelfMonitor::stop() {
  if (publisher_ != nullptr) owner_->sched().kill(publisher_);
  publisher_ = nullptr;
}

}  // namespace rdmamon::monitor
