// perfbench: runs one workload a fixed number of times and prints its
// metrics. Usage:
//   perfbench --workload <rubis_zipf|monitor_pull|monitor_push> --seed <n>
//             --reps <n> --trace <0|1> [--trace-dir <dir>]
// Each repetition builds the workload, warms it up and runs its timed
// phase. Untraced runs (--trace 0) report the simulated end-to-end
// metrics and peak memory. Traced runs (--trace 1) alternate untraced
// and traced repetitions and report the per-layer metrics. Every
// repetition must reproduce the same simulated-output digest. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "digest", "setup_first", "slice_min", "metrics"}; run.py merges
// several such processes into one result and reduces the two host-time
// lists to setup_s and host_s_per_sim_s.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "profiler.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  Workload workload = Workload::RubisZipf;
  std::uint64_t seed = 1;
  int reps = 1;
  bool trace = false;
  std::string trace_dir;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parse_workload(v);
      if (!w) return std::nullopt;
      o.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return std::nullopt;
    } else if (flag == "--reps") {
      o.reps = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || o.reps < 1) return std::nullopt;
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      o.trace = v == "1";
    } else if (flag == "--trace-dir") {
      o.trace_dir = v;
    } else {
      return std::nullopt;
    }
  }
  if (!have_workload) return std::nullopt;
  return o;
}

/// Linear-interpolated quantile of `v` (sorted in place).
double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per timed-phase slice, the fastest host time (in host s per sim s)
/// any repetition took for it. Every repetition replays the same
/// simulated slices, and the host's speed swings by up to ~1.7x within a
/// fraction of a second when other tenants contend for the core, so the
/// per-slice minimum is the cost of the simulated work itself.
std::vector<double> slice_min(const std::vector<RepResult>& reps) {
  std::vector<double> out = reps.front().slice_host_s_per_sim_s;
  for (const RepResult& r : reps) {
    for (std::size_t k = 0; k < out.size(); ++k) {
      out[k] = std::min(out[k], r.slice_host_s_per_sim_s[k]);
    }
  }
  return out;
}

/// Construction time followed by the warm-up slices, in host s.
std::vector<double> setup_slices(const RepResult& r) {
  std::vector<double> v = {r.construct_s};
  v.insert(v.end(), r.warmup_slice_s.begin(), r.warmup_slice_s.end());
  return v;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

/// The end-to-end metrics other than the two host times, which run.py
/// reduces from every process's setup_first and slice_min lists.
std::vector<Metric> end_to_end(const RepResult& r) {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"},
      {"throughput_per_sim_s", ratio(static_cast<double>(r.ops), r.timed_sim_s),
       "1/s"},
      {"latency_mean_ms", r.latency_mean_ns / 1e6, "ms"},
  };
}

std::vector<Metric> per_layer(const std::vector<RepResult>& plain,
                              const std::vector<RepResult>& traced,
                              const Profiler& prof, const SpanLog& spans) {
  // Counts repeat exactly across repetitions; registry counts exist only
  // in traced ones.
  const RepResult& r = plain.back();
  const Counters& a = r.at_warm;
  const Counters& b = r.at_end;
  const Counters& ta = traced.back().at_warm;
  const Counters& tb = traced.back().at_end;
  const double ops = static_cast<double>(r.ops);
  const double sim_s = r.timed_sim_s;
  auto d = [](auto hi, auto lo) { return static_cast<double>(hi - lo); };

  const double plain_cost = mean(slice_min(plain));
  const double traced_cost = mean(slice_min(traced));
  // The layer calls the benchmark times: pick() on the monitor workloads,
  // the RequestGenerator on rubis_zipf. Each workload makes one kind.
  std::vector<double> call_ns = spans.durations(SpanLog::Pick);
  const std::vector<double> gen_ns = spans.durations(SpanLog::Gen);
  call_ns.insert(call_ns.end(), gen_ns.begin(), gen_ns.end());
  const ProfileCounts& pc = prof.counts();
  const double timed_sim_ns = sim_s * 1e9;

  std::vector<Metric> m = {
      {"sim.events_per_op", ratio(d(b.events, a.events), ops), "count"},
      {"sim.events_per_sim_s", d(b.events, a.events) / sim_s, "1/s"},
      {"sim.host_ns_per_event",
       ratio(plain_cost * 1e9, d(b.events, a.events) / sim_s), "ns"},
      {"sim.cancelled_per_op", ratio(d(b.cancelled, a.cancelled), ops),
       "count"},
      {"alloc.per_op", ratio(static_cast<double>(r.alloc_timed.count), ops),
       "count"},
      {"alloc.bytes_per_op",
       ratio(static_cast<double>(r.alloc_timed.bytes), ops), "B"},
      {"alloc.setup_count", static_cast<double>(r.alloc_construct.count),
       "count"},
      {"alloc.warmup_count", static_cast<double>(r.alloc_warmup.count),
       "count"},
      {"alloc.timed_count", static_cast<double>(r.alloc_timed.count),
       "count"},
      {"alloc.host_frac", ratio(static_cast<double>(pc.alloc),
                                static_cast<double>(pc.total)),
       "frac"},
      {"os.context_switches_per_op",
       ratio(d(b.context_switches, a.context_switches), ops), "count"},
      {"os.backend_cpu_busy_frac",
       ratio(b.backend_busy_ns - a.backend_busy_ns,
             timed_sim_ns * r.backend_cpus),
       "frac"},
      {"os.frontend_cpu_busy_frac",
       ratio(b.frontend_busy_ns - a.frontend_busy_ns,
             timed_sim_ns * r.frontend_cpus),
       "frac"},
      {"net.rdma_ops_per_op", ratio(d(b.rdma_posted, a.rdma_posted), ops),
       "count"},
      {"net.packets_per_op", ratio(d(b.packets, a.packets), ops), "count"},
      {"net.doorbells_per_op", ratio(tb.doorbells - ta.doorbells, ops),
       "count"},
      {"net.socket_msgs_per_op", ratio(tb.socket_msgs - ta.socket_msgs, ops),
       "count"},
      {"net.wire_bytes_per_sim_s",
       d(b.rdma_wire_bytes, a.rdma_wire_bytes) / sim_s, "B/s"},
      {"net.rx_deferred", d(b.rx_deferred, a.rx_deferred), "count"},
      {"monitor.scatter_rounds_per_sim_s",
       (tb.scatter_rounds - ta.scatter_rounds) / sim_s, "1/s"},
      {"monitor.inbox_fresh_per_write",
       ratio(d(b.inbox_fresh, a.inbox_fresh),
             d(b.inbox_writes, a.inbox_writes)),
       "frac"},
      {"monitor.pushes_per_sim_s", d(b.pushes, a.pushes) / sim_s, "1/s"},
      {"monitor.heartbeat_frac",
       ratio(d(b.heartbeats, a.heartbeats), d(b.pushes, a.pushes)), "frac"},
      {"call.host_ns_p50", quantile(call_ns, 0.50), "ns"},
      {"call.host_ns_p99", quantile(call_ns, 0.99), "ns"},
      {"lb.fetch_failures", d(b.fetch_failures, a.fetch_failures), "count"},
      {"web.server_queue_depth_mean",
       ratio(r.queue_depth_sum, static_cast<double>(r.slice_samples)),
       "count"},
      {"web.dispatch_pending_mean",
       ratio(r.pending_sum, static_cast<double>(r.slice_samples)), "count"},
      {"telemetry.overhead_frac",
       ratio(traced_cost, plain_cost) - 1.0,
       "frac"},
  };
  // The layers the workloads exercise; the remaining modules and frames
  // outside every module make up "other", so the shares sum to 1.
  constexpr std::array<std::string_view, 8> kReported = {
      "sim", "os", "net", "monitor", "lb", "web", "workload", "telemetry"};
  double other = pc.other_share();
  for (std::string_view mod : kModules) {
    if (std::find(kReported.begin(), kReported.end(), mod) == kReported.end()) {
      other += pc.share(mod);
    }
  }
  for (std::string_view layer : kReported) {
    m.push_back({std::string(layer) + ".host_self_frac", pc.share(layer),
                 "frac"});
  }
  m.push_back({"other.host_self_frac", other, "frac"});
  return m;
}

void print_list(const char* key, const std::vector<double>& v) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", v[i]);
  }
  std::printf("], ");
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                std::uint64_t digest, const std::vector<RepResult>& plain,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"digest\": \"%016llx\", ",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(digest));
  // Only the first repetition builds the workload in fresh memory, so
  // only its set-up includes the first-touch growth of the event pool
  // and wheel.
  print_list("setup_first", setup_slices(plain.front()));
  print_list("slice_min", slice_min(plain));
  std::printf("\"metrics\": {");
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(const Options& o) {
  std::optional<Profiler> prof;
  std::optional<SpanLog> spans;
  if (o.trace) {
    prof.emplace();
    spans.emplace(std::size_t{1} << 20);
  }
  const char* wname = to_string(o.workload);
  std::printf("workload %s, seed %llu, %s, %d repetitions\n", wname,
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced" : "untraced", o.reps);

  // A traced run needs at least one repetition of each kind.
  const int reps = o.trace ? std::max(o.reps, 2) : o.reps;
  std::vector<RepResult> plain, traced;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0, failed = 0;
  for (int i = 0; i < reps; ++i) {
    const bool traced_rep = o.trace && i % 2 == 1;
    Tracing tr;
    if (traced_rep) {
      tr.spans = &*spans;
      tr.profiler = &*prof;
    }
    RepResult r = run_rep(o.workload, o.seed, tr);
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& f : r.failures) failures.push_back(f);
    const std::uint64_t first =
        plain.empty() ? r.digest : plain.front().digest;
    if (r.digest != first) {
      failures.push_back(std::string(traced_rep ? "traced" : "untraced") +
                         " repetition changed the simulated-output digest");
    }
    // Only the first repetition's per-pick samples are kept: the outputs
    // repeat exactly, and keeping more would grow peak memory with the
    // repetition count.
    if (!plain.empty() || traced_rep) r.view_age_ns = {};
    (traced_rep ? traced : plain).push_back(std::move(r));
  }
  if (!o.trace && Profiler::times_armed() != 0) {
    failures.push_back("the profiler was armed in an untraced run");
  }

  const RepResult& r0 = plain.front();
  std::printf("repetitions: %zu untraced, %zu traced; digest %016llx\n",
              plain.size(), traced.size(),
              static_cast<unsigned long long>(r0.digest));
  std::printf("timed phase: %.2f sim s, %llu ops, %llu attempted, %llu "
              "failed (failed_frac %.6g); latency samples %llu\n",
              r0.timed_sim_s, static_cast<unsigned long long>(r0.ops),
              static_cast<unsigned long long>(r0.attempted),
              static_cast<unsigned long long>(r0.failed),
              ratio(static_cast<double>(r0.failed),
                    static_cast<double>(r0.attempted)),
              static_cast<unsigned long long>(r0.latency_samples));
  std::vector<double> ages = r0.view_age_ns;
  std::printf("view age behind pick(): p50 %.6f ms, p99 %.6f ms over %zu "
              "picks\n",
              quantile(ages, 0.50) / 1e6, quantile(ages, 0.99) / 1e6,
              ages.size());
  const RepResult& rl = plain.back();
  std::printf("allocations: set-up %llu, warm-up %llu, timed %llu (%.2f "
              "per op",
              static_cast<unsigned long long>(rl.alloc_construct.count),
              static_cast<unsigned long long>(rl.alloc_warmup.count),
              static_cast<unsigned long long>(rl.alloc_timed.count),
              ratio(static_cast<double>(rl.alloc_timed.count),
                    static_cast<double>(rl.ops)));
  if (rl.zipf_ops > 0) {
    std::printf(", %.2f per Zipf request over %llu",
                ratio(static_cast<double>(rl.alloc_timed.count),
                      static_cast<double>(rl.zipf_ops)),
                static_cast<unsigned long long>(rl.zipf_ops));
  }
  std::printf(")\n");
  for (const std::string& f : failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  std::vector<Metric> metrics =
      o.trace ? per_layer(plain, traced, *prof, *spans) : end_to_end(r0);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (o.trace && !o.trace_dir.empty()) {
    const std::string path = o.trace_dir + "/" + wname + "-seed" +
                             std::to_string(o.seed) + ".trace.json";
    if (spans->write_chrome_trace(path)) {
      std::printf("spans written to %s (%llu dropped)\n", path.c_str(),
                  static_cast<unsigned long long>(spans->dropped()));
    } else {
      failures.push_back("could not write " + path);
    }
  }
  print_json(failures.empty(), attempted, failed, r0.digest, plain, metrics);
  return failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto opts = perfbench::parse(argc, argv);
  if (!opts) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <rubis_zipf|monitor_pull|"
                 "monitor_push> --seed <n> --reps <n> --trace <0|1> "
                 "[--trace-dir <dir>]\n");
    return 2;
  }
  return perfbench::run(*opts);
}
