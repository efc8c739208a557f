// Figure 3: monitoring latency of the four schemes as background
// computation + communication threads are added to the back-end server.
// Paper shape: Socket-Async and Socket-Sync grow roughly linearly with
// load; RDMA-Async and RDMA-Sync stay flat.
//
// Also the telemetry plane's overhead proof: the same configuration is
// run with and without an installed telemetry::Registry; instruments
// never charge simulated time, so the mean-latency delta must be ~0
// (acceptance: < 2%).
#include <cmath>
#include <memory>

#include "args.hpp"
#include "common.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "report.hpp"
#include "sim/simulation.hpp"
#include "telemetry/registry.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rdmamon;
using monitor::Scheme;

struct LatStats {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t samples = 0;
};

LatStats run_latency(Scheme scheme, int bg_threads, sim::Duration run,
                     bool with_telemetry = false) {
  sim::Simulation simu;
  telemetry::Registry reg;
  if (with_telemetry) reg.install(simu);
  net::Fabric fabric(simu, {});
  os::NodeConfig ncfg;
  ncfg.name = "backend";
  os::Node frontend(simu, {.name = "frontend"});
  os::Node backend(simu, ncfg);
  os::Node peer(simu, {.name = "peer"});
  fabric.attach(frontend);
  fabric.attach(backend);
  fabric.attach(peer);

  std::unique_ptr<workload::BackgroundLoad> bg;
  if (bg_threads > 0) {
    workload::BackgroundLoadConfig bcfg;
    bcfg.threads = bg_threads;
    bg = std::make_unique<workload::BackgroundLoad>(fabric, backend, peer,
                                                    bcfg);
  }

  monitor::MonitorConfig mcfg;
  mcfg.scheme = scheme;
  monitor::MonitorChannel chan(fabric, frontend, backend, mcfg);

  sim::Histogram lat_us;
  frontend.spawn("mon", [&](os::SimThread& self) -> os::Program {
    co_await os::SleepFor{sim::msec(200)};  // warm-up
    for (;;) {
      monitor::MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      if (s.ok) lat_us.add(s.latency().micros());
      co_await os::SleepFor{sim::msec(50)};  // the paper's T = 50 ms
    }
  });
  simu.run_for(run);
  LatStats out;
  out.mean_us = lat_us.mean();
  out.p50_us = lat_us.percentile(0.50);
  out.p99_us = lat_us.percentile(0.99);
  out.samples = lat_us.count();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;
  rdmamon::bench::banner(
      "Figure 3", "Monitoring latency vs back-end background threads",
      "socket schemes grow ~linearly with load; RDMA schemes stay flat");

  const std::vector<int> thread_counts = opts.quick
                                             ? std::vector<int>{0, 4, 8}
                                             : std::vector<int>{0, 2, 4, 8,
                                                                12, 16};
  const sim::Duration run =
      opts.quick ? sim::seconds(3) : sim::seconds(8);

  rdmamon::bench::JsonReport report("fig3_latency");
  report.stamp(opts.quick, opts.seed);
  report.set("run_seconds", run.seconds());

  rdmamon::util::Table table;
  std::vector<std::string> header = {"background threads"};
  for (int n : thread_counts) header.push_back(std::to_string(n));
  table.set_header(header);
  table.set_align(0, rdmamon::util::Align::Left);

  std::vector<std::string> labels;
  for (int n : thread_counts) labels.push_back(std::to_string(n));
  rdmamon::util::AsciiChart chart("monitoring latency (us, log-ish scale)",
                                  labels);

  for (monitor::Scheme s : monitor::kTransportSchemes) {
    std::vector<std::string> row = {monitor::to_string(s)};
    std::vector<double> ys;
    for (int n : thread_counts) {
      const LatStats st = run_latency(s, n, run);
      row.push_back(num(st.mean_us, 1));
      ys.push_back(st.mean_us);
      auto& r = report.add_result();
      r["scheme"] = monitor::to_string(s);
      r["bg_threads"] = n;
      r["mean_us"] = st.mean_us;
      r["p50_us"] = st.p50_us;
      r["p99_us"] = st.p99_us;
      r["samples"] = st.samples;
    }
    table.add_row(row);
    chart.add_series({monitor::to_string(s), ys});
  }
  std::cout << "\nMean monitoring latency (microseconds), T = 50 ms:\n";
  rdmamon::bench::show(table);
  rdmamon::bench::show(chart);

  // --- telemetry overhead proof -------------------------------------------
  // Same configuration, registry off vs on. Instruments are wall-clock-
  // only bookkeeping, so the simulated latency figures must not move.
  std::cout << "\nTelemetry overhead (registry off vs on, same seed):\n";
  auto& overhead = report.root()["telemetry_overhead"];
  overhead = rdmamon::util::JsonValue::array();
  double worst_delta_pct = 0.0;
  for (monitor::Scheme s : {Scheme::SocketAsync, Scheme::RdmaSync}) {
    const int n = thread_counts.back();
    const LatStats off = run_latency(s, n, run, /*with_telemetry=*/false);
    const LatStats on = run_latency(s, n, run, /*with_telemetry=*/true);
    const double delta_pct =
        off.mean_us > 0.0
            ? (on.mean_us / off.mean_us - 1.0) * 100.0
            : 0.0;
    if (std::abs(delta_pct) > std::abs(worst_delta_pct)) {
      worst_delta_pct = delta_pct;
    }
    std::cout << "  " << monitor::to_string(s) << ", " << n
              << " bg threads: " << num(off.mean_us, 3) << "us -> "
              << num(on.mean_us, 3) << "us (delta " << num(delta_pct, 3)
              << "%)\n";
    auto& o = overhead.push_back(rdmamon::util::JsonValue::object());
    o["scheme"] = monitor::to_string(s);
    o["bg_threads"] = n;
    o["mean_us_off"] = off.mean_us;
    o["mean_us_on"] = on.mean_us;
    o["delta_pct"] = delta_pct;
  }
  report.set("telemetry_worst_delta_pct", worst_delta_pct);
  std::cout << "  acceptance: |delta| < 2% (instruments charge no simulated "
               "time, so this is ~0 by construction)\n";

  return report.write() ? 0 : 1;
}
