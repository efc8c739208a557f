#include "os/kernel_stats.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>

namespace rdmamon::os {

namespace {

struct DecayMemo {
  std::int64_t dt = 0;
  std::int64_t window = -1;  ///< no window is negative: the entry is empty
  double value = 0.0;
};
constexpr int kDecayMemoBits = 8;
thread_local DecayMemo decay_memo[1 << kDecayMemoBits];

}  // namespace

double decay_factor(sim::Duration dt, sim::Duration window) {
  // The entry is dt's hashed slot XOR window's: one dt under two windows
  // lands on two entries instead of evicting itself, and under one window
  // the XOR only permutes slots, so the hit rate is that of a dt-keyed
  // table.
  constexpr int kShift = 64 - kDecayMemoBits;
  const std::uint64_t slot =
      ((static_cast<std::uint64_t>(dt.ns) * 0x9e3779b97f4a7c15ull) >> kShift) ^
      ((static_cast<std::uint64_t>(window.ns) * 0xc2b2ae3d27d4eb4full) >>
       kShift);
  DecayMemo& e = decay_memo[slot];
  if (e.dt != dt.ns || e.window != window.ns) {
    e.dt = dt.ns;
    e.window = window.ns;
    e.value = std::exp(-static_cast<double>(dt.ns) /
                       static_cast<double>(window.ns));
  }
  return e.value;
}

CpuAccounting::CpuAccounting(sim::Duration ema_window)
    : window_(ema_window) {}

void CpuAccounting::set_state(CpuState s, sim::TimePoint t) {
  assert(t >= last_);
  const sim::Duration dt = t - last_;
  if (dt.ns > 0) {
    // Fold the elapsed interval into the EMA: the signal was constant
    // (busy or idle) over [last_, t].
    const double k = decay_factor(dt, window_);
    const double level = state_ == CpuState::Idle ? 0.0 : 1.0;
    ema_ = ema_ * k + level * (1.0 - k);
    switch (state_) {
      case CpuState::Idle: idle_ += dt; break;
      case CpuState::User: user_ += dt; break;
      case CpuState::Kernel: system_ += dt; break;
      case CpuState::Irq: irq_ += dt; break;
    }
  }
  last_ = t;
  state_ = s;
}

double CpuAccounting::utilization(sim::TimePoint t) const {
  const sim::Duration dt = t - last_;
  if (dt.ns <= 0) return ema_;
  const double k = decay_factor(dt, window_);
  const double level = state_ == CpuState::Idle ? 0.0 : 1.0;
  return ema_ * k + level * (1.0 - k);
}

KernelStats::KernelStats(int cpus, sim::Duration ema_window,
                         std::uint64_t memory_bytes)
    : window_(ema_window), mem_total_(memory_bytes) {
  cpus_.assign(static_cast<std::size_t>(cpus), CpuAccounting(ema_window));
}

void KernelStats::set_cpu_state(CpuId cpu, CpuState s, sim::TimePoint t) {
  cpus_[static_cast<std::size_t>(cpu)].set_state(s, t);
}

double KernelStats::cpu_utilization(CpuId cpu, sim::TimePoint t) const {
  return cpus_[static_cast<std::size_t>(cpu)].utilization(t);
}

double KernelStats::cpu_load(sim::TimePoint t) const {
  double sum = 0.0;
  for (const auto& c : cpus_) sum += c.utilization(t);
  return sum / static_cast<double>(cpus_.size());
}

void KernelStats::on_thread_created(bool kernel) {
  (kernel ? nr_threads_kernel_ : nr_threads_user_)++;
}

void KernelStats::on_thread_exited(bool kernel) {
  (kernel ? nr_threads_kernel_ : nr_threads_user_)--;
}

void KernelStats::on_thread_runnable(bool kernel) {
  (kernel ? nr_running_kernel_ : nr_running_user_)++;
}

void KernelStats::on_thread_unrunnable(bool kernel) {
  (kernel ? nr_running_kernel_ : nr_running_user_)--;
  assert(nr_running_user_ >= 0 && nr_running_kernel_ >= 0);
}

void KernelStats::alloc_memory(std::uint64_t bytes) {
  mem_used_ += bytes;
  if (mem_used_ > mem_total_) mem_used_ = mem_total_;  // swap not modelled
}

void KernelStats::free_memory(std::uint64_t bytes) {
  mem_used_ = bytes > mem_used_ ? 0 : mem_used_ - bytes;
}

void KernelStats::on_net_bytes(std::uint64_t bytes, sim::TimePoint t) {
  const sim::Duration dt = t - net_last_;
  if (dt.ns > 0) {
    net_rate_ema_ *= decay_factor(dt, window_);
    net_last_ = t;
  }
  // An impulse of `bytes` spread over the EMA window.
  net_rate_ema_ +=
      static_cast<double>(bytes) / (static_cast<double>(window_.ns) / 1e9);
}

double KernelStats::net_rate(sim::TimePoint t) const {
  const sim::Duration dt = t - net_last_;
  if (dt.ns <= 0) return net_rate_ema_;
  return net_rate_ema_ * decay_factor(dt, window_);
}

}  // namespace rdmamon::os
