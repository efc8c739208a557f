#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lb/admission.hpp"
#include "lb/balancer.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace rdmamon::lb {
namespace {

using monitor::Scheme;
using sim::msec;
using sim::seconds;

struct LbEnv {
  sim::Simulation simu;
  net::Fabric fabric{simu, {}};
  os::Node frontend{simu, {.name = "fe"}};
  std::vector<std::unique_ptr<os::Node>> backends;
  std::unique_ptr<LoadBalancer> lb;

  explicit LbEnv(int n, Scheme scheme = Scheme::RdmaSync) {
    fabric.attach(frontend);
    lb = std::make_unique<LoadBalancer>(WeightConfig::for_scheme(scheme));
    for (int i = 0; i < n; ++i) {
      os::NodeConfig cfg;
      cfg.name = "be" + std::to_string(i);
      backends.push_back(std::make_unique<os::Node>(simu, cfg));
      fabric.attach(*backends.back());
      monitor::MonitorConfig mcfg;
      mcfg.scheme = scheme;
      lb->add_backend(std::make_unique<monitor::MonitorChannel>(
          fabric, frontend, *backends.back(), mcfg));
    }
  }

  void hog(int backend, int count) {
    for (int i = 0; i < count; ++i) {
      backends[static_cast<std::size_t>(backend)]->spawn(
          "hog", [](os::SimThread&) -> os::Program {
            for (;;) co_await os::Compute{seconds(100)};
          });
    }
  }
};

TEST(LoadIndexFn, RunqueueTermDominates) {
  WeightConfig w;
  os::LoadSnapshot a, b;
  a.nr_running = 0;
  b.nr_running = 8;  // saturated run queue
  EXPECT_GT(load_index(b, w) - load_index(a, w), 0.45);
}

TEST(LoadBalancer, SpreadsEvenlyWhenBackendsEqual) {
  LbEnv env(4);
  env.lb->start(env.frontend, msec(50));
  env.simu.run_for(msec(200));
  std::array<int, 4> picks{};
  for (int i = 0; i < 400; ++i) ++picks[static_cast<std::size_t>(env.lb->pick())];
  for (int n : picks) EXPECT_NEAR(n, 100, 10);
}

TEST(LoadBalancer, LoadedBackendGetsFewerPicks) {
  LbEnv env(4);
  env.hog(2, 4);  // backend 2 saturated: runq 4, cpu 100%
  env.lb->start(env.frontend, msec(50));
  env.simu.run_for(seconds(1));
  std::array<int, 4> picks{};
  for (int i = 0; i < 400; ++i) ++picks[static_cast<std::size_t>(env.lb->pick())];
  EXPECT_LT(picks[2], picks[0] / 2);
  EXPECT_GT(picks[0], 0);
}

TEST(LoadBalancer, OverloadedBackendLeavesRotation) {
  LbEnv env(4);
  env.hog(1, 12);  // far beyond the overload cutoff
  env.lb->start(env.frontend, msec(50));
  env.simu.run_for(seconds(1));
  EXPECT_GE(env.lb->index_of(1), kOverloadCutoff);
  std::array<int, 4> picks{};
  for (int i = 0; i < 300; ++i) ++picks[static_cast<std::size_t>(env.lb->pick())];
  EXPECT_EQ(picks[1], 0);  // completely out of rotation
}

TEST(LoadBalancer, AllOverloadedStillPicksSomeone) {
  LbEnv env(2);
  env.hog(0, 12);
  env.hog(1, 12);
  env.lb->start(env.frontend, msec(50));
  env.simu.run_for(seconds(1));
  // No healthy server: picks must still return valid indices.
  for (int i = 0; i < 10; ++i) {
    const int p = env.lb->pick();
    EXPECT_GE(p, 0);
    EXPECT_LT(p, 2);
  }
}

TEST(LoadBalancer, PollerRefreshesSamples) {
  LbEnv env(2);
  env.lb->start(env.frontend, msec(20));
  env.simu.run_for(msec(500));
  EXPECT_TRUE(env.lb->last_sample(0).ok);
  EXPECT_TRUE(env.lb->last_sample(1).ok);
  EXPECT_GT(env.lb->fetch_latency_ns().count(), 10u);
  // Samples keep refreshing: retrieved_at advances.
  const auto t1 = env.lb->last_sample(0).retrieved_at;
  env.simu.run_for(msec(200));
  EXPECT_GT(env.lb->last_sample(0).retrieved_at.ns, t1.ns);
}

TEST(LoadBalancer, ERdmaSyncPenalisesIrqPressure) {
  WeightConfig w = WeightConfig::for_scheme(Scheme::ERdmaSync);
  os::LoadSnapshot calm, stormy;
  calm.irq_pending = {1, 1};   // within the normal-traffic allowance
  stormy.irq_pending = {4, 6};  // interrupt storm / deferred backlog
  EXPECT_DOUBLE_EQ(load_index(calm, w), 0.0);
  EXPECT_GT(load_index(stormy, w), 0.5);
}

/// pick() before its load indices were cached: three passes that recount
/// the live back ends and recompute load_index from every back end's last
/// sample on each call. The reference the cached single pass must match
/// bit for bit, credits included.
class ReferencePicker {
 public:
  explicit ReferencePicker(int n) : credit_(static_cast<std::size_t>(n)) {}

  int pick(const LoadBalancer& lb) {
    const int n = lb.backends();
    auto index_of = [&lb](int i) {
      const monitor::MonitorSample& s = lb.last_sample(i);
      return s.ok ? load_index(s.info, lb.weights()) : 0.0;
    };
    constexpr double kFloor = 0.02;
    int alive = 0;
    for (int i = 0; i < n; ++i) {
      if (lb.health_of(i) != BackendHealth::Dead) ++alive;
    }
    const bool any_alive = alive > 0;
    auto in_rotation = [&](int i) {
      return !any_alive || lb.health_of(i) != BackendHealth::Dead;
    };
    bool any_ok = false;
    for (int i = 0; i < n; ++i) {
      if (in_rotation(i) && index_of(i) < kOverloadCutoff) {
        any_ok = true;
        break;
      }
    }
    all_dead_ += any_alive ? 0 : 1;
    all_overloaded_ += any_ok ? 0 : 1;
    double total = 0.0;
    int winner = -1;
    for (int i = 0; i < n; ++i) {
      const double idx = index_of(i);
      double w;
      if (!in_rotation(i)) {
        w = 0.0;
      } else if (any_ok && idx >= kOverloadCutoff) {
        w = 0.0;
      } else if (lb.health_of(i) == BackendHealth::Suspect) {
        w = kFloor;
        ++suspect_weighed_;
      } else {
        w = std::max(kFloor, 1.0 - idx);
      }
      credit_[static_cast<std::size_t>(i)] += w;
      total += w;
      if (w > 0.0 &&
          (winner < 0 || credit_[static_cast<std::size_t>(i)] >
                             credit_[static_cast<std::size_t>(winner)])) {
        winner = i;
      }
    }
    if (winner < 0) winner = 0;
    credit_[static_cast<std::size_t>(winner)] -= total;
    alive_ = alive;
    return winner;
  }

  double credit(int i) const { return credit_[static_cast<std::size_t>(i)]; }
  int alive() const { return alive_; }
  int all_dead() const { return all_dead_; }
  int all_overloaded() const { return all_overloaded_; }
  int suspect_weighed() const { return suspect_weighed_; }

 private:
  std::vector<double> credit_;
  int alive_ = 0;
  int all_dead_ = 0;
  int all_overloaded_ = 0;
  int suspect_weighed_ = 0;
};

class PickCacheProperty : public ::testing::TestWithParam<Scheme> {};

TEST_P(PickCacheProperty, MatchesUncachedThreePassReference) {
  // 10k picks over random sample streams, with injected fetch failures
  // walking back ends through Suspect and Dead, whole-cluster outages
  // (the all-dead fallback), hot phases where every server is past the
  // overload cutoff, and shard-takeover resets. The samples reach the
  // balancer through its public ingest path, which runs the same
  // apply_sample + failure detector as the poller.
  constexpr int kBackends = 8;
  constexpr int kPicks = 10'000;
  LbEnv env(kBackends, GetParam());
  LoadBalancer& lb = *env.lb;
  ReferencePicker ref(kBackends);
  sim::Rng rng(0x5eed'1234);

  auto random_sample = [&rng](bool hot) {
    monitor::MonitorSample s;
    s.ok = true;
    os::LoadSnapshot& info = s.info;
    info.cpu_load = hot ? rng.uniform(0.9, 1.0) : rng.uniform();
    info.nr_running = static_cast<int>(rng.uniform_int(hot ? 8 : 0, 10));
    info.mem_load = rng.uniform();
    info.net_rate = rng.uniform(0.0, 2e9);
    info.connections = static_cast<int>(rng.uniform_int(0, 200));
    info.irq_pending = {static_cast<int>(rng.uniform_int(0, 5)),
                        static_cast<int>(rng.uniform_int(0, 5))};
    return s;
  };
  monitor::MonitorSample failed;
  failed.ok = false;
  failed.error = monitor::FetchError::Transport;

  for (int p = 0; p < kPicks; ++p) {
    // Regimes of 500 picks: calm, hot (everyone overloaded), outage
    // (failures dominate until everyone is Dead), recovery.
    const int regime = (p / 500) % 4;
    const bool hot = regime == 1;
    const double fail_p = regime == 2 ? 0.9 : regime == 3 ? 0.05 : 0.2;
    const int events = static_cast<int>(rng.uniform_int(0, 3));
    for (int e = 0; e < events; ++e) {
      const auto b = static_cast<std::size_t>(rng.uniform_int(0, kBackends - 1));
      if (rng.chance(fail_p)) {
        if (rng.chance(0.5)) {
          lb.ingest_peer_sample(b, failed);
        } else {
          lb.note_stale(b);
        }
      } else if (rng.chance(0.01)) {
        lb.reset_health(b);
      } else {
        lb.ingest_peer_sample(b, random_sample(hot));
      }
    }
    const int expected = ref.pick(lb);
    ASSERT_EQ(lb.pick(), expected) << "pick " << p;
    ASSERT_EQ(lb.alive_backends(), ref.alive()) << "pick " << p;
    for (int i = 0; i < kBackends; ++i) {
      ASSERT_EQ(lb.wrr_credit(i), ref.credit(i))
          << "pick " << p << ", backend " << i;
    }
  }
  // Every regime the cache must survive was actually reached.
  EXPECT_GT(ref.all_dead(), 0);
  EXPECT_GT(ref.all_overloaded(), 0);
  EXPECT_GT(ref.suspect_weighed(), 0);
}

INSTANTIATE_TEST_SUITE_P(PlainAndIrqIndex, PickCacheProperty,
                         ::testing::Values(Scheme::RdmaSync,
                                           Scheme::ERdmaSync));

TEST(Admission, ThresholdSeparatesAdmitReject) {
  AdmissionController adm(0.5);
  EXPECT_TRUE(adm.admit(0.2));
  EXPECT_FALSE(adm.admit(0.7));
  EXPECT_TRUE(adm.admit(0.499));
  EXPECT_EQ(adm.admitted(), 2u);
  EXPECT_EQ(adm.rejected(), 1u);
  EXPECT_DOUBLE_EQ(adm.threshold(), 0.5);
}

class WeightSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(WeightSweepTest, IndexMonotoneInCpuLoad) {
  // Property: for any runq level, the index is monotone in CPU load.
  WeightConfig w;
  os::LoadSnapshot lo, hi;
  lo.nr_running = hi.nr_running = static_cast<int>(GetParam() * 8);
  lo.cpu_load = 0.2;
  hi.cpu_load = 0.9;
  EXPECT_LT(load_index(lo, w), load_index(hi, w));
}

TEST_P(WeightSweepTest, IndexMonotoneInRunq) {
  WeightConfig w;
  os::LoadSnapshot lo, hi;
  lo.cpu_load = hi.cpu_load = GetParam();
  lo.nr_running = 1;
  hi.nr_running = 6;
  EXPECT_LT(load_index(lo, w), load_index(hi, w));
}

INSTANTIATE_TEST_SUITE_P(Levels, WeightSweepTest,
                         ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

}  // namespace
}  // namespace rdmamon::lb
