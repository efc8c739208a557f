// Figure 7: throughput improvement over Socket-Async for the co-hosted
// RUBiS + Zipf workload, sweeping the Zipf alpha.
// Paper shape: large gains at low alpha (diverse per-request cost, cache
// misses) — up to ~28% for RDMA-Sync and ~35% for e-RDMA-Sync at
// alpha 0.25 — shrinking as alpha rises and the working set caches.
#include "args.hpp"
#include "common.hpp"
#include "mixed_workload.hpp"
#include "report.hpp"

int main(int argc, char** argv) {
  using namespace rdmamon;
  const auto opts = bench::parse_args(argc, argv);
  bench::banner(
      "Figure 7", "Throughput improvement vs Socket-Async, Zipf alpha sweep",
      "RDMA-Sync up to ~28%, e-RDMA-Sync up to ~35% at alpha 0.25; gains "
      "shrink as alpha (temporal locality) rises");

  const std::vector<double> alphas =
      opts.quick ? std::vector<double>{0.25, 0.9}
                 : std::vector<double>{0.25, 0.5, 0.75, 0.9};
  bench::MixedRunConfig base;
  base.seed = opts.seed;
  base.run = opts.quick ? sim::seconds(6) : sim::seconds(20);
  base.warmup = opts.quick ? sim::seconds(2) : sim::seconds(4);

  bench::JsonReport report("fig7_zipf");
  report.stamp(opts.quick, opts.seed);

  util::Table table;
  std::vector<std::string> header = {"scheme \\ alpha"};
  std::vector<std::string> labels;
  for (double a : alphas) {
    header.push_back(bench::num(a, 2));
    labels.push_back(bench::num(a, 2));
  }
  table.set_header(header);
  table.set_align(0, util::Align::Left);

  // Baseline: Socket-Async throughput per alpha.
  std::vector<double> baseline;
  for (double a : alphas) {
    bench::MixedRunConfig mc = base;
    mc.scheme = monitor::Scheme::SocketAsync;
    mc.alpha = a;
    baseline.push_back(bench::run_mixed_workload(mc).total_throughput);
    auto& r = report.add_result();
    r["scheme"] = monitor::to_string(monitor::Scheme::SocketAsync);
    r["alpha"] = a;
    r["throughput_rps"] = baseline.back();
    r["improvement_pct"] = 0.0;
  }
  {
    std::vector<std::string> row = {"Socket-Async (req/s)"};
    for (double t : baseline) row.push_back(bench::num(t, 0));
    table.add_row(row);
  }

  util::AsciiChart chart("throughput improvement over Socket-Async (%)",
                         labels);
  for (monitor::Scheme s :
       {monitor::Scheme::SocketSync, monitor::Scheme::RdmaAsync,
        monitor::Scheme::RdmaSync, monitor::Scheme::ERdmaSync}) {
    std::vector<std::string> row = {monitor::to_string(s)};
    std::vector<double> ys;
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      bench::MixedRunConfig mc = base;
      mc.scheme = s;
      mc.alpha = alphas[i];
      const double t = bench::run_mixed_workload(mc).total_throughput;
      const double imp = (t / baseline[i] - 1.0) * 100.0;
      row.push_back(bench::num(imp, 1) + "%");
      ys.push_back(imp);
      auto& r = report.add_result();
      r["scheme"] = monitor::to_string(s);
      r["alpha"] = alphas[i];
      r["throughput_rps"] = t;
      r["improvement_pct"] = imp;
    }
    table.add_row(row);
    chart.add_series({monitor::to_string(s), ys});
  }
  std::cout << "\nThroughput improvement relative to Socket-Async:\n";
  bench::show(table);
  bench::show(chart);
  return report.write() ? 0 : 1;
}
