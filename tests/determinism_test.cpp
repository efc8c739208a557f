// Determinism pins: the whole stack — RUBiS workload, monitoring,
// dispatch, telemetry, and the multi-front-end scale-out plane — is a
// pure function of its seed. Two runs at the same seed must export
// byte-identical telemetry snapshots AND flight-recorder dumps (the
// merged run history); a different seed must diverge (the equality
// check is not vacuous). This is the
// regression net under every golden-trace and bench comparison: if it
// breaks, someone introduced wall-clock, address-ordering, or unseeded
// randomness into the simulated path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "fault/fault.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "telemetry/export.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"
#include "web/cluster.hpp"

namespace rdmamon {
namespace {

using sim::msec;
using sim::seconds;

struct TraceDump {
  std::string metrics;
  std::string flight;  ///< the recorder's merged dump
  std::string alarms;
};

/// One complete RUBiS cluster run: M front ends, 4 back ends, 2 client
/// nodes of browsing-mix traffic, telemetry on, a staleness SLO with a
/// deliberately unreachable target (so alarm edges actually fire and the
/// log comparison is not vacuous), 1 simulated second. One node crashes
/// for 300 ms at a seed-drawn instant — back end 0 with one front end,
/// front end 1 with several (so the gossip plane evicts and readmits it).
/// The crash is what carries the seed into the flight history: one-sided
/// READ timing does not depend on the client load, so a fault-free
/// monitoring plane records the same history under every seed.
TraceDump run_rubis(std::uint64_t seed, int frontends) {
  sim::Simulation simu;
  telemetry::Registry reg;
  reg.install(simu);
  telemetry::SloEngine slo;
  slo.install(reg);
  telemetry::SloSpec spec;
  spec.name = "lb.view_age";
  spec.metric = "worst backend view age (ns)";
  spec.target = 1e3;  // 1us: below any fetch latency, so every probed
                      // view age violates and edges are guaranteed
  spec.window = msec(500);
  spec.error_budget = 1.0;
  spec.min_count = 4;
  slo.add(spec);
  slo.arm_timer(simu, msec(50));

  web::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.frontends = frontends;
  cfg.backends = 4;
  cfg.monitor_period = msec(10);
  cfg.lb_granularity = msec(10);
  cfg.scaleout.gossip_period = msec(10);
  web::ClusterTestbed bed(simu, cfg);
  bed.add_clients(2, web::make_rubis_generator());

  sim::Rng rng(seed);
  const int victim = frontends > 1 ? bed.plane()->frontend(1).node().id
                                   : bed.backend(0).id;
  fault::FaultPlan plan;
  plan.crash_for(victim, sim::TimePoint{msec(rng.uniform_int(200, 400)).ns},
                 msec(300));
  fault::FaultInjector inj(bed.fabric());
  inj.arm(plan);
  simu.run_for(seconds(1));

  return {telemetry::to_json(reg.snapshot()).dump(2),
          reg.recorder().dump("determinism").dump(2),
          slo.log_json().dump(2)};
}

/// True when the dump holds at least one event of `kind` — checked on the
/// rendered JSON, exactly what the byte comparison sees.
bool has_event(const std::string& dump, const std::string& kind) {
  return dump.find("\"kind\": \"" + kind + "\"") != std::string::npos;
}

TEST(Determinism, SameSeedSameTelemetryAndSpans) {
  const TraceDump a = run_rubis(42, 1);
  const TraceDump b = run_rubis(42, 1);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.flight, b.flight);
  // Non-vacuous: the history holds scatter rounds, verbs completions, the
  // SLO's alarm edges and the crash.
  EXPECT_TRUE(has_event(a.flight, "round"));
  EXPECT_TRUE(has_event(a.flight, "read.comp"));
  EXPECT_TRUE(has_event(a.flight, "alarm"));
  EXPECT_TRUE(has_event(a.flight, "crash"));
  // The alarm log slides its windows on the simulated clock, so it must
  // replay byte-for-byte too — and non-vacuously (edges fired).
  EXPECT_EQ(a.alarms, b.alarms);
  EXPECT_NE(a.alarms.find("\"to\": \"breach\""), std::string::npos);
  // Sanity: the run actually produced telemetry worth comparing.
  EXPECT_NE(a.metrics.find("lb.pick"), std::string::npos);
  EXPECT_NE(a.metrics.find("web.response"), std::string::npos);
}

TEST(Determinism, DifferentSeedDiverges) {
  const TraceDump a = run_rubis(42, 1);
  const TraceDump b = run_rubis(43, 1);
  EXPECT_NE(a.metrics, b.metrics);
  EXPECT_NE(a.flight, b.flight);
}

TEST(Determinism, ScaleOutPlaneIsDeterministicToo) {
  // The multi-front-end plane adds gossip READs, ring arithmetic and
  // peer ingestion to the event stream — all of it must replay exactly.
  const TraceDump a = run_rubis(7, 4);
  const TraceDump b = run_rubis(7, 4);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.flight, b.flight);
  EXPECT_EQ(a.alarms, b.alarms);
  EXPECT_NE(a.metrics.find("cluster.ring.owned"), std::string::npos);
  EXPECT_NE(a.flight.find("\"ring\": \"gossip."), std::string::npos);
}

TEST(Determinism, ScaleOutDivergesAcrossSeeds) {
  const TraceDump a = run_rubis(7, 4);
  const TraceDump b = run_rubis(8, 4);
  EXPECT_NE(a.metrics, b.metrics);
  EXPECT_NE(a.flight, b.flight);
}

}  // namespace
}  // namespace rdmamon
