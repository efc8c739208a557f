// Figure 9: fine-grained vs coarse-grained monitoring — total throughput
// of the co-hosted RUBiS + Zipf(alpha=0.5) workload as the balancer's
// load-fetching granularity shrinks from 4096 ms to 64 ms.
// Paper shape: at coarse granularity (~1024 ms+) all schemes are
// comparable; as granularity becomes fine, RDMA-Sync improves (~25% over
// the rest at 64 ms) while the socket schemes cannot exploit it.
#include "args.hpp"
#include "common.hpp"
#include "mixed_workload.hpp"
#include "report.hpp"

int main(int argc, char** argv) {
  using namespace rdmamon;
  const auto opts = bench::parse_args(argc, argv);
  bench::banner(
      "Figure 9", "Throughput vs load-fetching granularity",
      "comparable at 1024 ms+; RDMA-Sync gains ~25% at 64 ms where socket "
      "schemes cannot follow");

  const std::vector<int> grans_ms =
      opts.quick ? std::vector<int>{64, 1024}
                 : std::vector<int>{64, 256, 1024, 4096};
  bench::MixedRunConfig base;
  base.seed = opts.seed;
  base.alpha = 0.5;
  base.run = opts.quick ? sim::seconds(6) : sim::seconds(20);
  base.warmup = opts.quick ? sim::seconds(2) : sim::seconds(4);

  bench::JsonReport report("fig9_finegrain");
  report.stamp(opts.quick, opts.seed);

  util::Table table;
  std::vector<std::string> header = {"scheme \\ granularity (ms)"};
  std::vector<std::string> labels;
  for (int g : grans_ms) {
    header.push_back(std::to_string(g));
    labels.push_back(std::to_string(g));
  }
  table.set_header(header);
  table.set_align(0, util::Align::Left);

  util::AsciiChart chart("total throughput (req/s)", labels);
  double rdma_at_fine = 0, best_other_at_fine = 0;
  for (monitor::Scheme s : monitor::kTransportSchemes) {
    std::vector<std::string> row = {monitor::to_string(s)};
    std::vector<double> ys;
    for (std::size_t i = 0; i < grans_ms.size(); ++i) {
      bench::MixedRunConfig mc = base;
      mc.scheme = s;
      mc.lb_granularity = sim::msec(grans_ms[i]);
      const double t = bench::run_mixed_workload(mc).total_throughput;
      row.push_back(bench::num(t, 0));
      ys.push_back(t);
      auto& r = report.add_result();
      r["scheme"] = monitor::to_string(s);
      r["granularity_ms"] = grans_ms[i];
      r["throughput_rps"] = t;
      if (i == 0) {  // finest granularity
        if (s == monitor::Scheme::RdmaSync) {
          rdma_at_fine = t;
        } else {
          best_other_at_fine = std::max(best_other_at_fine, t);
        }
      }
    }
    table.add_row(row);
    chart.add_series({monitor::to_string(s), ys});
  }
  std::cout << "\nTotal throughput (RUBiS + Zipf alpha=0.5, req/s):\n";
  bench::show(table);
  bench::show(chart);
  if (best_other_at_fine > 0) {
    std::cout << "At " << grans_ms[0] << " ms: RDMA-Sync vs best other = "
              << bench::num((rdma_at_fine / best_other_at_fine - 1.0) * 100,
                            1)
              << "% (paper: ~25% at 64 ms)\n";
    auto& h = report.root()["headline"];
    h = util::JsonValue::object();
    h["granularity_ms"] = grans_ms[0];
    h["rdma_sync_rps"] = rdma_at_fine;
    h["best_other_rps"] = best_other_at_fine;
    h["gain_pct"] = (rdma_at_fine / best_other_at_fine - 1.0) * 100.0;
  }
  return report.write() ? 0 : 1;
}
