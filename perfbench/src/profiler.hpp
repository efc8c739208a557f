// Sampling profiler owned by the benchmark. A CPU-time timer
// (ITIMER_PROF) raises SIGPROF; the handler copies the stack's return
// addresses into a preallocated buffer and nothing else. After a timed
// phase, drain() symbolizes the buffered stacks from the executable's
// ELF symbol table and charges each sample to the innermost frame whose
// function lives in a `rdmamon::<module>` namespace. Frames of operator
// new/delete and the C allocator are skipped on the way (so their cost
// lands on the module that allocated) and also counted as allocator
// samples.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>

namespace perfbench {

/// The simulator's modules, as named by the src/ directories and their
/// `rdmamon::<module>` namespaces.
inline constexpr std::array<std::string_view, 13> kModules = {
    "sim",     "os",  "net",      "monitor", "lb",       "web",   "workload",
    "cluster", "fault", "ganglia", "reconfig", "telemetry", "util"};

/// Index into kModules of the `rdmamon::<module>` scope that `demangled`
/// (a demangled function name) is defined in, or -1 when it is not in
/// one. Template arguments and parameter lists are ignored, so
/// `std::function<...rdmamon::net...>::operator()` is not charged to net.
int module_of_symbol(std::string_view demangled);

/// Sample counts after drain(): per module, unattributed ("other"), and
/// how many samples were taken inside an allocator function.
struct ProfileCounts {
  std::array<std::uint64_t, kModules.size()> module{};
  std::uint64_t other = 0;
  std::uint64_t alloc = 0;
  std::uint64_t total = 0;
  std::uint64_t dropped = 0;  ///< samples lost to a full buffer

  /// Share of `total` charged to module `name` (0 when unknown).
  double share(std::string_view name) const;
  /// Share not charged to any module.
  double other_share() const;
};

class Profiler {
 public:
  /// Preallocates the sample buffer and loads the symbol table. At most
  /// one Profiler may exist at a time (it owns the SIGPROF handler).
  Profiler();
  ~Profiler();

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Starts / stops the CPU-time timer.
  void arm();
  void disarm();

  /// Symbolizes and charges the buffered samples, then empties the
  /// buffer. Call while disarmed.
  void drain();

  const ProfileCounts& counts() const { return counts_; }

  /// Times any Profiler in this process has been armed. Untraced runs
  /// must leave it at zero.
  static std::uint64_t times_armed();

 private:
  struct Symbols;

  std::unique_ptr<Symbols> syms_;
  ProfileCounts counts_;
};

}  // namespace perfbench
