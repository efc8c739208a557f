// Shared identifiers and configuration for the simulated operating system.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace rdmamon::os {

using ThreadId = std::uint32_t;
using CpuId = int;

/// Thread lifecycle states (mirrors a classic Unix scheduler).
enum class ThreadState {
  Ready,     ///< runnable, waiting in the run queue
  Running,   ///< on a CPU
  Sleeping,  ///< timer sleep
  Blocked,   ///< waiting on a WaitQueue
  Finished,  ///< exited
};

/// Hardware interrupt sources tracked in irq_stat.
enum class IrqType : int {
  Timer = 0,
  NetRx = 1,
  NetTx = 2,
  Other = 3,
};
constexpr int kIrqTypes = 4;

/// Most CPUs a node may have: the capacity of a load snapshot's inline
/// per-CPU interrupt counts. Node construction rejects more.
constexpr int kMaxCpus = 16;

/// Kernel time to service one /proc load-snapshot read (trap + kernel
/// walks task lists and counters). Dominates monitoring overhead.
constexpr sim::Duration kProcReadCost = sim::usec(150);

/// Additional /proc read cost per live thread (the task-list walk).
constexpr sim::Duration kProcReadCostPerThread = sim::usec(6);

/// Per-packet protocol processing cost (the IPoIB receive path of the
/// paper's era was expensive: IP-over-IB encapsulation on a 2.4 stack).
constexpr sim::Duration kSoftirqPacketCost = sim::usec(6);

/// Packets processed inline in hard-IRQ context before deferring the
/// rest to ksoftirqd (the receive-livelock / NAPI-budget knob that makes
/// socket monitoring latency grow with load, Fig 3).
constexpr int kRxInlineBudget = 4;

/// ksoftirqd drains at most this many packets before yielding.
constexpr int kSoftirqBatch = 16;

/// Per-node OS tuning knobs. Defaults approximate the paper's testbed
/// (dual 2.4 GHz Xeon, RedHat 9 / Linux 2.4-era behaviour).
struct NodeConfig {
  std::string name = "node";
  int cpus = 2;

  /// Scheduler timer frequency; sleep wakeups round up to 1/hz boundaries.
  /// The paper notes reporting resolution is bounded by this (Section 3).
  int hz = 1000;

  /// Round-robin timeslice.
  sim::Duration quantum = sim::msec(10);

  /// Cost of a context switch, charged as system time on dispatch.
  sim::Duration context_switch_cost = sim::usec(3);

  /// Hardware IRQ handler entry/exit cost.
  sim::Duration irq_handler_cost = sim::usec(2);

  /// Window of the continuous-time EMA used for CPU utilisation.
  sim::Duration load_window = sim::msec(100);

  /// Total simulated RAM (for the memory component of the load index).
  std::uint64_t memory_bytes = 1ull << 30;  // 1 GB, as in the paper

  /// When true, fire a periodic timer interrupt on CPU 0 every tick
  /// (visible in irq_stat, Fig 6). Off by default: quantum/sleep handling
  /// is event-driven and does not need it, and it adds hz events/second.
  bool timer_irq = false;

  sim::Duration tick() const {
    return sim::nsec(1'000'000'000ll / hz);
  }
};

}  // namespace rdmamon::os
