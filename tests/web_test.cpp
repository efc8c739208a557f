#include <gtest/gtest.h>

#include "lb/balancer.hpp"
#include "web/cluster.hpp"
#include "web/metrics.hpp"
#include "sim/simulation.hpp"

namespace rdmamon::web {
namespace {

using monitor::Scheme;
using sim::msec;
using sim::seconds;

TEST(LoadIndex, WeightsCombineAndClamp) {
  lb::WeightConfig w;
  os::LoadSnapshot s;
  s.cpu_load = 1.0;
  s.mem_load = 1.0;
  s.net_rate = 1e12;      // way over capacity: clamps to 1
  s.connections = 10'000; // clamps to 1
  EXPECT_NEAR(lb::load_index(s, w),
              lb::kWeightCpu + lb::kWeightMem + lb::kWeightNet +
                  lb::kWeightConn,
              1e-9);
  os::LoadSnapshot idle;
  EXPECT_NEAR(lb::load_index(idle, w), 0.0, 1e-9);
}

TEST(LoadIndex, IrqPenaltyOnlyForERdmaSync) {
  os::LoadSnapshot s;
  s.irq_pending = {3, 2};
  const auto plain = lb::WeightConfig::for_scheme(Scheme::RdmaSync);
  const auto extended = lb::WeightConfig::for_scheme(Scheme::ERdmaSync);
  EXPECT_DOUBLE_EQ(lb::load_index(s, plain), 0.0);
  // 5 pending, 2 allowed for free: 3 x 0.15 penalty.
  EXPECT_NEAR(lb::load_index(s, extended), 0.45, 1e-9);
}

TEST(ResponseStats, RecordsPerClassAndOverall) {
  ResponseStats st;
  st.record(0, msec(2));
  st.record(0, msec(4));
  st.record(1, msec(10));
  st.record_rejected();
  EXPECT_EQ(st.completed(), 3u);
  EXPECT_EQ(st.rejected(), 1u);
  EXPECT_DOUBLE_EQ(st.by_class(0).mean(), static_cast<double>(msec(3).ns));
  EXPECT_DOUBLE_EQ(st.by_class(1).max(), static_cast<double>(msec(10).ns));
  EXPECT_EQ(st.by_class(42).count(), 0u);
  EXPECT_NEAR(st.throughput(seconds(3)), 1.0, 1e-9);
  st.reset();
  EXPECT_EQ(st.completed(), 0u);
}

ClusterConfig small_cluster(Scheme scheme) {
  ClusterConfig cfg;
  cfg.backends = 4;
  cfg.scheme = scheme;
  return cfg;
}

TEST(Cluster, ServesRubisRequestsEndToEnd) {
  sim::Simulation simu;
  ClusterTestbed bed(simu, small_cluster(Scheme::RdmaSync));
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 4;
  ClientGroup& g = bed.add_clients(2, make_rubis_generator(), ccfg);
  simu.run_for(seconds(5));
  EXPECT_GT(g.stats().completed(), 500u);
  // Unloaded-ish cluster: mean response in the low milliseconds.
  EXPECT_LT(g.stats().overall().mean(),
            static_cast<double>(msec(50).ns));
  // All backends participated.
  for (auto n : bed.dispatcher().per_backend()) EXPECT_GT(n, 0u);
}

TEST(Cluster, EveryQueryClassGetsResponses) {
  sim::Simulation simu;
  ClusterTestbed bed(simu, small_cluster(Scheme::RdmaSync));
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 8;
  ClientGroup& g = bed.add_clients(2, make_rubis_generator(), ccfg);
  simu.run_for(seconds(10));
  for (auto q : workload::kAllRubisQueries) {
    EXPECT_GT(g.stats().by_class(static_cast<int>(q)).count(), 0u)
        << workload::to_string(q);
  }
  // Heavier classes respond slower on average.
  EXPECT_GT(
      g.stats()
          .by_class(static_cast<int>(
              workload::RubisQuery::BrowseCategoriesInRegion))
          .mean(),
      g.stats().by_class(static_cast<int>(workload::RubisQuery::Home)).mean());
}

TEST(Cluster, ZipfStaticWorkloadRuns) {
  sim::Simulation simu;
  ClusterTestbed bed(simu, small_cluster(Scheme::RdmaSync));
  auto trace = std::make_shared<workload::ZipfTrace>(
      workload::ZipfTraceConfig{}, 77);
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 4;
  ClientGroup& g = bed.add_clients(2, make_zipf_generator(trace), ccfg);
  simu.run_for(seconds(5));
  EXPECT_GT(g.stats().completed(), 200u);
  EXPECT_GT(g.stats().by_class(kStaticClass).count(), 0u);
}

TEST(Cluster, AdmissionControlRejectsUnderThresholdZero) {
  sim::Simulation simu;
  ClusterConfig cfg = small_cluster(Scheme::RdmaSync);
  cfg.admission_threshold = 0.0;  // reject everything
  ClusterTestbed bed(simu, cfg);
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 2;
  ClientGroup& g = bed.add_clients(1, make_rubis_generator(), ccfg);
  simu.run_for(seconds(2));
  EXPECT_EQ(g.stats().completed(), 0u);
  EXPECT_GT(g.stats().rejected(), 0u);
  EXPECT_GT(bed.admission()->rejected(), 0u);
  EXPECT_EQ(bed.admission()->admitted(), 0u);
}

TEST(Cluster, BalancerSpreadsLoadAcrossEqualBackends) {
  sim::Simulation simu;
  ClusterTestbed bed(simu, small_cluster(Scheme::RdmaSync));
  ClientGroupConfig ccfg;
  ccfg.threads_per_node = 8;
  bed.add_clients(2, make_rubis_generator(), ccfg);
  simu.run_for(seconds(10));
  const auto& per = bed.dispatcher().per_backend();
  std::uint64_t lo = ~0ull, hi = 0;
  for (auto n : per) {
    lo = std::min(lo, n);
    hi = std::max(hi, n);
  }
  ASSERT_GT(lo, 0u);
  // No severe skew on identical back ends.
  EXPECT_LT(static_cast<double>(hi) / static_cast<double>(lo), 2.0);
}

TEST(Cluster, FineGrainedRdmaBeatsStaleSocketUnderHeterogeneousLoad) {
  // Mini Fig 9: co-hosted Zipf traffic plus RUBiS, fine granularity.
  // RDMA-Sync's fresh data should not do worse than Socket-Async's stale
  // view; we only assert the direction weakly here (full sweep in bench).
  auto run = [](Scheme scheme) {
    sim::Simulation simu;
    ClusterConfig cfg;
    cfg.backends = 4;
    cfg.scheme = scheme;
    cfg.lb_granularity = msec(64);
    ClusterTestbed bed(simu, cfg);
    ClientGroupConfig rc;
    rc.threads_per_node = 8;
    rc.think = msec(10);
    ClientGroup& rubis = bed.add_clients(2, make_rubis_generator(), rc);
    auto trace = std::make_shared<workload::ZipfTrace>(
        workload::ZipfTraceConfig{}, 13);
    ClientGroupConfig zc;
    zc.threads_per_node = 8;
    zc.think = msec(10);
    ClientGroup& zipf = bed.add_clients(2, make_zipf_generator(trace), zc);
    simu.run_for(seconds(10));
    return rubis.stats().completed() + zipf.stats().completed();
  };
  const auto rdma = run(Scheme::RdmaSync);
  const auto sock = run(Scheme::SocketAsync);
  EXPECT_GT(static_cast<double>(rdma), static_cast<double>(sock) * 0.95);
}

}  // namespace
}  // namespace rdmamon::web
