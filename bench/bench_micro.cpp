// Micro-benchmarks (google-benchmark) of the simulator's primitives and
// of the modelled operations' simulated costs. These are the ablation
// hooks for DESIGN.md's modelling decisions: RDMA READ vs socket RTT,
// scheduler dispatch cost, event-queue throughput, Zipf sampling.
//
// Takes the uniform bench flags next to google-benchmark's own:
// `--quick` runs each benchmark for a short minimum time, and `--seed N`
// seeds the Zipf and RUBiS sampling benchmarks.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "args.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "net/socket.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "workload/rubis.hpp"
#include "workload/zipf.hpp"

namespace {

using namespace rdmamon;

std::uint64_t g_seed = 42;  ///< --seed: the sampling benchmarks' RNG seed

// --- DES kernel ---------------------------------------------------------------

void BM_EventQueueScheduleRun(benchmark::State& state) {
  sim::Simulation simu;
  std::int64_t t = 1;
  for (auto _ : state) {
    simu.at(sim::TimePoint{t}, [] {});
    simu.run_until(sim::TimePoint{t});
    ++t;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_EventQueueBurst(benchmark::State& state) {
  const int burst = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation simu;
    for (int i = 0; i < burst; ++i) {
      simu.after(sim::nsec(i), [] {});
    }
    simu.run();
    benchmark::DoNotOptimize(simu.events_executed());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * burst);
}
BENCHMARK(BM_EventQueueBurst)->Arg(1000)->Arg(10000);

// --- RNG / workload sampling ----------------------------------------------------

void BM_ZipfSample(benchmark::State& state) {
  sim::ZipfDistribution z(static_cast<std::size_t>(state.range(0)), 0.8);
  sim::Rng rng(g_seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(z.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(100000);

void BM_RubisInstance(benchmark::State& state) {
  workload::RubisWorkload wl;
  sim::Rng rng(g_seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(wl.sample_instance(rng));
  }
}
BENCHMARK(BM_RubisInstance);

// --- OS model -------------------------------------------------------------------

void BM_SchedulerContextSwitches(benchmark::State& state) {
  // Wall-clock cost of simulating round-robin among N compute threads.
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation simu;
    os::NodeConfig cfg;
    cfg.cpus = 2;
    os::Node node(simu, cfg);
    for (int i = 0; i < threads; ++i) {
      node.spawn("t" + std::to_string(i), [](os::SimThread&) -> os::Program {
        for (;;) co_await os::Compute{sim::msec(5)};
      });
    }
    state.ResumeTiming();
    simu.run_for(sim::seconds(1));
    benchmark::DoNotOptimize(node.sched().context_switches());
  }
}
BENCHMARK(BM_SchedulerContextSwitches)->Arg(4)->Arg(16);

// --- transports: simulated cost AND wall cost -------------------------------------

void BM_SimulatedRdmaRead(benchmark::State& state) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node a(simu, {.name = "a"}), b(simu, {.name = "b"});
  fabric.attach(a);
  fabric.attach(b);
  net::MrKey key =
      fabric.nic(1).register_mr(256, [] { return net::Payload(1); });
  net::CompletionQueue cq;
  net::QueuePair qp(fabric.nic(0), 1, cq);
  double last_us = 0;
  for (auto _ : state) {
    // Posted through the QueuePair, the path the monitors use.
    const sim::TimePoint t0 = simu.now();
    qp.post_read(key, 256, /*wr_id=*/0);
    while (cq.empty()) simu.run_for(sim::usec(1));
    const net::Completion c = cq.pop();
    last_us = (simu.now() - t0).micros();
    benchmark::DoNotOptimize(c.status);
  }
  state.counters["sim_latency_us"] = last_us;
}
BENCHMARK(BM_SimulatedRdmaRead);

void BM_SimulatedMonitorFetch(benchmark::State& state) {
  // One full RDMA-Sync monitoring fetch through the coroutine stack.
  const auto scheme = static_cast<monitor::Scheme>(state.range(0));
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "fe"}), be(simu, {.name = "be"});
  fabric.attach(fe);
  fabric.attach(be);
  monitor::MonitorConfig mcfg;
  mcfg.scheme = scheme;
  monitor::MonitorChannel chan(fabric, fe, be, mcfg);
  std::uint64_t fetches = 0;
  monitor::MonitorSample sample;
  fe.spawn("mon", [&](os::SimThread& self) -> os::Program {
    for (;;) {
      co_await chan.frontend().fetch(self, sample);
      ++fetches;
      co_await os::SleepFor{sim::msec(1)};
    }
  });
  simu.run_for(sim::msec(100));  // warm-up
  for (auto _ : state) {
    const std::uint64_t before = fetches;
    while (fetches == before) simu.run_for(sim::msec(1));
  }
  state.counters["sim_latency_us"] = sample.latency().micros();
}
BENCHMARK(BM_SimulatedMonitorFetch)
    ->Arg(static_cast<int>(monitor::Scheme::SocketSync))
    ->Arg(static_cast<int>(monitor::Scheme::RdmaSync));

}  // namespace

int main(int argc, char** argv) {
  const rdmamon::bench::Options opts = rdmamon::bench::take_args(argc, argv);
  g_seed = opts.seed;
  std::vector<char*> args(argv, argv + argc);
  // Ahead of the user's flags, so an explicit --benchmark_min_time wins.
  std::string quick_min_time = "--benchmark_min_time=0.01";
  if (opts.quick) args.insert(args.begin() + 1, quick_min_time.data());
  int n = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
