#include <gtest/gtest.h>

#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

namespace rdmamon::workload {
namespace {

using sim::msec;
using sim::seconds;

struct Env {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node node{simu, {.name = "node"}};
  os::Node peer{simu, {.name = "peer"}};

  Env() {
    fabric.attach(node);
    fabric.attach(peer);
  }
};

TEST(BackgroundLoad, GeneratesCpuAndNetworkLoad) {
  Env env;
  BackgroundLoadConfig cfg;
  cfg.threads = 4;
  BackgroundLoad bg(env.fabric, env.node, env.peer, cfg);
  env.simu.run_for(seconds(1));
  EXPECT_GT(env.node.stats().cpu_load(env.simu.now()), 0.5);
  EXPECT_GT(env.fabric.nic(0).tx_packets(), 100u);
  EXPECT_GT(env.fabric.nic(0).rx_packets(), 100u);  // echo replies
}

TEST(BackgroundLoad, StopRemovesAllThreads) {
  Env env;
  BackgroundLoadConfig cfg;
  cfg.threads = 4;
  BackgroundLoad bg(env.fabric, env.node, env.peer, cfg);
  env.simu.run_for(msec(200));
  EXPECT_EQ(env.node.stats().nr_threads(), 4);
  bg.stop();
  EXPECT_EQ(env.node.stats().nr_threads(), 0);
  EXPECT_EQ(env.peer.stats().nr_threads(), 0);
  env.simu.run_for(msec(500));
  EXPECT_LT(env.node.stats().cpu_load(env.simu.now()), 0.05);
}

TEST(BackgroundLoad, ZeroBurstMeansPureCompute) {
  Env env;
  BackgroundLoadConfig cfg;
  cfg.threads = 2;
  cfg.burst = 0;
  const auto tx_before = env.fabric.nic(0).tx_packets();
  BackgroundLoad bg(env.fabric, env.node, env.peer, cfg);
  env.simu.run_for(seconds(1));
  EXPECT_EQ(env.fabric.nic(0).tx_packets(), tx_before);  // no traffic
  EXPECT_GT(env.node.stats().cpu_load(env.simu.now()), 0.5);
  EXPECT_EQ(env.peer.stats().nr_threads(), 0);  // no echo threads
}

TEST(FloatingPointApp, UndisturbedAppHasZeroDelay) {
  Env env;
  FloatingPointApp app(env.node, msec(10));
  env.simu.run_for(seconds(2));
  EXPECT_GT(app.batches(), 100u);
  EXPECT_NEAR(app.normalized_delay(), 0.0, 1e-6);
}

TEST(FloatingPointApp, CompetingWorkInflatesDelay) {
  Env env;
  FloatingPointApp app(env.node, msec(10));  // one thread per CPU
  // A competitor stealing CPU time.
  env.node.spawn("competitor", [](os::SimThread&) -> os::Program {
    for (;;) {
      co_await os::Compute{msec(2)};
      co_await os::SleepFor{msec(5)};
    }
  });
  env.simu.run_for(seconds(2));
  EXPECT_GT(app.normalized_delay(), 0.05);
}

TEST(FloatingPointApp, StopHaltsProgress) {
  Env env;
  FloatingPointApp app(env.node, msec(5));
  env.simu.run_for(seconds(1));
  app.stop();
  const auto batches = app.batches();
  env.simu.run_for(seconds(1));
  EXPECT_EQ(app.batches(), batches);
}

TEST(Disturbance, FiresAndRampsOnTargets) {
  Env env;
  os::Node infra(env.simu, {.name = "infra"});
  env.fabric.attach(infra);
  DisturbanceConfig cfg;
  cfg.mean_interval = msec(300);
  cfg.duration = msec(200);
  DisturbanceGenerator gen(env.fabric, {&env.node}, infra, cfg,
                           sim::Rng(3));
  env.simu.run_for(seconds(3));
  EXPECT_GE(gen.events(), 3u);
  // Between events everything is torn down again eventually.
  EXPECT_LE(env.node.stats().nr_threads(),
            kDisturbanceStages * cfg.stage.threads);
}

TEST(Disturbance, VictimLoadRisesDuringEvent) {
  Env env;
  os::Node infra(env.simu, {.name = "infra"});
  env.fabric.attach(infra);
  DisturbanceConfig cfg;
  cfg.mean_interval = msec(50);  // an event starts almost immediately...
  cfg.duration = seconds(10);    // ...and stays active for the whole test
  DisturbanceGenerator gen(env.fabric, {&env.node}, infra, cfg,
                           sim::Rng(4));
  env.simu.run_for(sim::from_millis(1500));
  EXPECT_GE(gen.events(), 1u);
  // Mid-event, fully ramped: the victim is visibly loaded.
  EXPECT_GT(env.node.stats().cpu_load(env.simu.now()), 0.5);
  EXPECT_GE(env.node.stats().nr_running(), 2);
}

}  // namespace
}  // namespace rdmamon::workload
