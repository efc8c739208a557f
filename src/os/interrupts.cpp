#include "os/interrupts.hpp"

#include <cassert>

#include <algorithm>

#include "os/scheduler.hpp"

namespace rdmamon::os {

IrqController::IrqController(Scheduler& sched, const NodeConfig& cfg)
    : sched_(sched), cfg_(cfg) {
  per_cpu_.resize(static_cast<std::size_t>(cfg_.cpus));
}

void IrqController::raise(CpuId cpu, IrqType type, sim::InlineFn body,
                          sim::Duration extra_cost) {
  auto& pc = per_cpu_[static_cast<std::size_t>(cpu)];
  const auto ti = static_cast<std::size_t>(type);
  ++pc.pending[ti];
  ++pc.raised[ti];
  pc.recent_raises.push_back(sched_.simu().now());
  // Trim anything older than 1 ms; readers only ask about tiny windows.
  const sim::TimePoint horizon = sched_.simu().now() - sim::msec(1);
  while (!pc.recent_raises.empty() && pc.recent_raises.front() < horizon) {
    pc.recent_raises.pop_front();
  }
  // The scheduler decrements the pending count when the handler
  // completes, before `body` runs.
  sched_.request_irq(cpu, cfg_.irq_handler_cost + extra_cost, std::move(body),
                     &pc.pending[ti]);
}

void IrqController::raise_softirq(CpuId cpu, SoftirqItem item) {
  auto& pc = per_cpu_[static_cast<std::size_t>(cpu)];
  pc.soft_q.push_back(std::move(item));
  pc.soft_wq.notify_one();  // kick ksoftirqd if it is sleeping
}

int IrqController::pending_hard(CpuId cpu, IrqType type) const {
  return per_cpu_[static_cast<std::size_t>(cpu)]
      .pending[static_cast<std::size_t>(type)];
}

int IrqController::pending_hard_total(CpuId cpu) const {
  const auto& pc = per_cpu_[static_cast<std::size_t>(cpu)];
  int sum = 0;
  for (int v : pc.pending) sum += v;
  return sum;
}

std::size_t IrqController::softirq_backlog(CpuId cpu) const {
  return per_cpu_[static_cast<std::size_t>(cpu)].soft_q.size();
}

SoftirqItem IrqController::pop_softirq(CpuId cpu) {
  auto& pc = per_cpu_[static_cast<std::size_t>(cpu)];
  assert(!pc.soft_q.empty());
  SoftirqItem item = std::move(pc.soft_q.front());
  pc.soft_q.pop_front();
  return item;
}

std::uint64_t IrqController::raised_count(CpuId cpu, IrqType type) const {
  return per_cpu_[static_cast<std::size_t>(cpu)]
      .raised[static_cast<std::size_t>(type)];
}

int IrqController::raised_within(CpuId cpu, sim::Duration window) const {
  const auto& pc = per_cpu_[static_cast<std::size_t>(cpu)];
  const sim::TimePoint since = sched_.simu().now() - window;
  int n = 0;
  for (std::size_t i = pc.recent_raises.size(); i-- > 0;) {
    if (pc.recent_raises[i] < since) break;
    ++n;
  }
  return n;
}

int IrqController::pending_dma_view(CpuId cpu) const {
  const auto& pc = per_cpu_[static_cast<std::size_t>(cpu)];
  int hard = 0;
  for (int v : pc.pending) hard += v;
  const int soft = static_cast<int>(pc.soft_q.size());
  return hard + std::min(soft, 4);
}

namespace {

/// ksoftirqd body: drain deferred items in batches, yielding between
/// batches so it round-robins with (and under load waits behind) runnable
/// application threads — the receive-livelock behaviour behind Fig 3.
Program ksoftirqd_body(SimThread& self, IrqController* irq, CpuId cpu) {
  auto& controller = *irq;
  for (;;) {
    while (controller.softirq_backlog(cpu) == 0) {
      co_await WaitOn{&controller.softirq_waitqueue(cpu)};
    }
    int done = 0;
    while (controller.softirq_backlog(cpu) > 0 && done < kSoftirqBatch) {
      SoftirqItem item = controller.pop_softirq(cpu);
      co_await ComputeKernel{item.cost};
      if (item.fn) item.fn();
      ++done;
    }
    if (controller.softirq_backlog(cpu) > 0) {
      co_await YieldCpu{};
    }
  }
  (void)self;
}

}  // namespace

void IrqController::start_ksoftirqd() {
  for (int cpu = 0; cpu < cfg_.cpus; ++cpu) {
    SpawnOptions opts;
    opts.kernel_thread = true;
    opts.affinity = cpu;
    opts.interactive_allowed = false;
    sched_.spawn("ksoftirqd/" + std::to_string(cpu),
                 [this, cpu](SimThread& t) {
                   return ksoftirqd_body(t, this, cpu);
                 },
                 opts);
  }
}

}  // namespace rdmamon::os
