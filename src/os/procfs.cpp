#include "os/procfs.hpp"

#include "os/node.hpp"

namespace rdmamon::os {

sim::Duration ProcFs::read_cost() const {
  // The task-list walk scales with the number of live threads.
  return kProcReadCost + kProcReadCostPerThread * node_.stats().nr_threads();
}

LoadSnapshot ProcFs::base_snapshot() const {
  const sim::TimePoint now = node_.simu().now();
  const KernelStats& st = node_.stats();
  LoadSnapshot s;
  s.computed_at = now;
  s.cpu_load = st.cpu_load(now);
  s.nr_running = st.nr_running();
  s.nr_threads = st.nr_threads();
  s.mem_load = st.memory_load();
  s.net_rate = st.net_rate(now);
  s.connections = st.connections();
  s.irq_pending.assign(static_cast<std::size_t>(st.num_cpus()), 0);
  return s;
}

LoadSnapshot ProcFs::snapshot() const {
  LoadSnapshot s = base_snapshot();
  // Synchronized read: handlers have drained; only arrivals during the
  // ~2us copy-out window show up.
  for (int c = 0; c < node_.stats().num_cpus(); ++c) {
    s.irq_pending[static_cast<std::size_t>(c)] =
        node_.irq().raised_within(c, sim::usec(2));
  }
  return s;
}

LoadSnapshot ProcFs::snapshot_dma() const {
  LoadSnapshot s = base_snapshot();
  for (int c = 0; c < node_.stats().num_cpus(); ++c) {
    s.irq_pending[static_cast<std::size_t>(c)] =
        node_.irq().pending_dma_view(c);
  }
  return s;
}

}  // namespace rdmamon::os
