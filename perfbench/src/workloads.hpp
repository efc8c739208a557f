// The benchmark's three workloads, built from the simulator's public
// APIs. One repetition constructs the workload, then runs its simulated
// warm-up and its timed phase in fixed simulated slices, timing each
// slice on the host. The simulated outputs of a repetition depend only
// on the workload and the seed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.hpp"

namespace perfbench {

class Profiler;
class SpanLog;

enum class Workload { RubisZipf, MonitorPull, MonitorPush };

inline constexpr std::array<Workload, 3> kWorkloads = {
    Workload::RubisZipf, Workload::MonitorPull, Workload::MonitorPush};

const char* to_string(Workload w);
std::optional<Workload> parse_workload(std::string_view s);

/// Cumulative counters read from the layers' public accessors at one
/// instant. The registry-derived fields are read only when a telemetry
/// registry is installed (traced repetitions).
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t context_switches = 0;
  double frontend_busy_ns = 0;  ///< summed over the front end's CPUs
  double backend_busy_ns = 0;   ///< summed over every back end's CPUs
  std::uint64_t rdma_posted = 0;
  std::uint64_t packets = 0;  ///< two-sided packets transmitted
  std::uint64_t rdma_wire_bytes = 0;
  std::uint64_t rx_deferred = 0;
  double fetch_latency_sum_ns = 0;
  std::uint64_t fetches_ok = 0;
  std::uint64_t fetch_failures = 0;
  std::uint64_t pushes = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t push_errors = 0;
  std::uint64_t inbox_writes = 0;
  std::uint64_t inbox_fresh = 0;
  double doorbells = 0;
  double scatter_rounds = 0;
  double socket_msgs = 0;
};

/// Everything one repetition measured.
struct RepResult {
  // Host cost. Set-up is construction plus the simulated warm-up, which
  // runs in slices like the timed phase.
  double construct_s = 0;
  std::vector<double> warmup_slice_s;
  std::vector<double> slice_host_s_per_sim_s;
  double timed_sim_s = 0;
  AllocCount alloc_construct, alloc_warmup, alloc_timed;

  // Layer counters at the end of warm-up and of the timed phase.
  Counters at_warm, at_end;
  int frontend_cpus = 0;
  int backend_cpus = 0;

  // Simulated outputs of the timed phase.
  std::uint64_t ops = 0;        ///< requests served / fetches / images
  std::uint64_t zipf_ops = 0;   ///< Zipf requests served (rubis_zipf)
  std::uint64_t attempted = 0;  ///< requests issued / fetches / pushes
  std::uint64_t failed = 0;     ///< rejected / failed fetches / push errors
  double latency_mean_ns = 0;   ///< response time, or view age
  std::uint64_t latency_samples = 0;
  std::vector<double> view_age_ns;  ///< one per pick()
  double queue_depth_sum = 0;  ///< per-server queue depth, summed per slice
  double pending_sum = 0;      ///< dispatcher pending, summed per slice
  std::uint64_t slice_samples = 0;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;  ///< output checks that failed
};

/// Instrumentation of a traced repetition; null members mean untraced.
/// A traced repetition also installs a telemetry::Registry before wiring.
struct Tracing {
  SpanLog* spans = nullptr;
  Profiler* profiler = nullptr;
};

/// Builds workload `w` from `seed`, warms it up and runs its timed phase.
RepResult run_rep(Workload w, std::uint64_t seed, const Tracing& tr);

}  // namespace perfbench
