// The /proc view of a node: the snapshot every user-space monitoring
// scheme reads, and (via the same struct) the kernel-memory image the
// RDMA-Sync scheme fetches directly.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <initializer_list>

#include "os/types.hpp"
#include "sim/time.hpp"

namespace rdmamon::os {

class Node;

/// Per-CPU pending hard-interrupt counts, stored inline so a snapshot
/// copies without touching the heap (the RDMA-Sync path copies one per
/// READ). Holds up to kMaxCpus entries; size() is the node's CPU count.
class IrqPending {
 public:
  IrqPending() = default;
  IrqPending(std::initializer_list<int> v) {
    assert(v.size() <= v_.size());
    for (int x : v) v_[n_++] = x;
  }

  /// Resizes to `n` entries, all `value`. Precondition: n <= kMaxCpus.
  void assign(std::size_t n, int value) {
    assert(n <= v_.size());
    n_ = n;
    for (std::size_t i = 0; i < n; ++i) v_[i] = value;
  }

  std::size_t size() const { return n_; }
  int& operator[](std::size_t i) { return v_[i]; }
  int operator[](std::size_t i) const { return v_[i]; }
  const int* begin() const { return v_.data(); }
  const int* end() const { return v_.data() + n_; }

 private:
  std::array<int, kMaxCpus> v_{};
  std::size_t n_ = 0;
};

/// One consistent reading of a node's resource usage. `computed_at` is the
/// simulated instant the values were *computed by the kernel*; monitoring
/// staleness is measured against it in the accuracy experiments.
struct LoadSnapshot {
  sim::TimePoint computed_at{};
  double cpu_load = 0.0;   ///< mean CPU utilisation in [0,1]
  int nr_running = 0;      ///< runnable user threads (Fig 5a metric)
  int nr_threads = 0;      ///< live user threads
  double mem_load = 0.0;   ///< memory used fraction in [0,1]
  double net_rate = 0.0;   ///< bytes/sec EMA
  int connections = 0;     ///< open sockets
  IrqPending irq_pending;  ///< per-CPU pending hard interrupts

  int irq_pending_total() const {
    int s = 0;
    for (int v : irq_pending) s += v;
    return s;
  }
};

/// The /proc filesystem interface. Reading it costs kernel CPU time: user
/// threads must pay `co_await ComputeKernel{procfs.read_cost()}` before
/// calling snapshot(), mirroring the trap the paper describes (Fig 1,
/// steps 2-3). The RDMA-Sync path instead reads the same data through a
/// registered kernel memory region at zero host-CPU cost.
class ProcFs {
 public:
  explicit ProcFs(Node& node) : node_(node) {}

  /// Kernel time one snapshot read costs the calling thread.
  sim::Duration read_cost() const;

  /// The /proc view: what a user-space reader obtains. CPU, memory,
  /// thread and network values are current, but the interrupt counters
  /// reflect a *synchronized* read — the 2.4-era read path spins on the
  /// global IRQ lock until in-flight handlers drain, so only interrupts
  /// arriving in the final copy-out window are visible as pending.
  /// Free of simulated cost: the caller pays read_cost() explicitly.
  LoadSnapshot snapshot() const;

  /// The view a lock-free one-sided RDMA READ of the kernel pages gets at
  /// the DMA instant: same values, but irq_pending holds the transient
  /// truth (in-service + queued hard IRQs, plus deferred softirq work) —
  /// the detail only RDMA-Sync / e-RDMA-Sync can exploit (Fig 6).
  LoadSnapshot snapshot_dma() const;

 private:
  LoadSnapshot base_snapshot() const;
  Node& node_;
};

}  // namespace rdmamon::os
