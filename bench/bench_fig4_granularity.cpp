// Figure 4: impact of monitoring granularity on a co-located
// floating-point application. Paper shape: Socket-Async worst (two
// back-end threads), then Socket-Sync, then RDMA-Async; RDMA-Sync shows
// no degradation at any granularity because nothing runs on the back end.
#include "args.hpp"
#include "common.hpp"
#include "report.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rdmamon;
using monitor::Scheme;

/// Mean normalised app delay (%) with `scheme` monitoring at granularity g.
double app_delay_pct(Scheme scheme, sim::Duration g, sim::Duration run) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node frontend(simu, {.name = "frontend"});
  os::Node backend(simu, {.name = "backend"});
  fabric.attach(frontend);
  fabric.attach(backend);

  monitor::MonitorConfig mcfg;
  mcfg.scheme = scheme;
  mcfg.period = g;  // async schemes recompute every g
  monitor::MonitorChannel chan(fabric, frontend, backend, mcfg);

  // The measured application: one compute thread per CPU.
  workload::FloatingPointApp app(backend, sim::msec(10));

  // Front-end fetches at the same granularity.
  frontend.spawn("mon", [&](os::SimThread& self) -> os::Program {
    for (;;) {
      monitor::MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      co_await os::SleepFor{g};
    }
  });
  simu.run_for(run);
  return app.normalized_delay() * 100.0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;
  rdmamon::bench::banner(
      "Figure 4", "Application perturbation vs monitoring granularity",
      "at 1-4 ms granularity Socket-Async degrades the app most; "
      "RDMA-Sync not at all");

  const std::vector<int> grans_ms =
      opts.quick ? std::vector<int>{1, 16, 256}
                 : std::vector<int>{1, 4, 16, 64, 256, 1024};
  const sim::Duration run = opts.quick ? sim::seconds(4) : sim::seconds(10);

  rdmamon::bench::JsonReport report("fig4_granularity");
  report.stamp(opts.quick, opts.seed);

  rdmamon::util::Table table;
  std::vector<std::string> header = {"granularity (ms)"};
  for (int gm : grans_ms) header.push_back(std::to_string(gm));
  table.set_header(header);
  table.set_align(0, rdmamon::util::Align::Left);

  std::vector<std::string> labels;
  for (int gm : grans_ms) labels.push_back(std::to_string(gm));
  rdmamon::util::AsciiChart chart("normalised app delay (%)", labels);

  for (monitor::Scheme s : monitor::kTransportSchemes) {
    std::vector<std::string> row = {monitor::to_string(s)};
    std::vector<double> ys;
    for (int gm : grans_ms) {
      const double pct = app_delay_pct(s, sim::msec(gm), run);
      row.push_back(num(pct, 2));
      ys.push_back(pct);
      auto& r = report.add_result();
      r["scheme"] = monitor::to_string(s);
      r["granularity_ms"] = gm;
      r["app_delay_pct"] = pct;
    }
    table.add_row(row);
    chart.add_series({monitor::to_string(s), ys});
  }
  std::cout << "\nNormalised application delay (%, lower is better):\n";
  rdmamon::bench::show(table);
  rdmamon::bench::show(chart);
  return report.write() ? 0 : 1;
}
