// Tests of the benchmark itself: the sampling profiler's attribution, and
// the workloads' output checks, seed handling and tracing neutrality.
#include <gtest/gtest.h>

#include <ctime>

#include "profiler.hpp"
#include "spans.hpp"
#include "workloads.hpp"

// Busy loops placed in known module namespaces, kept out of line so the
// profiler sees their frames.
namespace rdmamon::web {
[[gnu::noinline]] double spin_web(double seconds) {
  volatile double x = 1.0;
  const std::clock_t end =
      std::clock() + static_cast<std::clock_t>(seconds * CLOCKS_PER_SEC);
  while (std::clock() < end) {
    for (int i = 0; i < 1000; ++i) x = x * 1.0000001 + 1e-9;
  }
  return x;
}
}  // namespace rdmamon::web

namespace rdmamon::net {
[[gnu::noinline]] double spin_net(double seconds) {
  volatile double x = 1.0;
  const std::clock_t end =
      std::clock() + static_cast<std::clock_t>(seconds * CLOCKS_PER_SEC);
  while (std::clock() < end) {
    for (int i = 0; i < 1000; ++i) x = x * 1.0000001 + 1e-9;
  }
  return x;
}
}  // namespace rdmamon::net

namespace perfbench {
namespace {

TEST(ModuleOfSymbol, UsesTheEnclosingFunctionsNamespace) {
  auto idx = [](std::string_view m) {
    for (std::size_t i = 0; i < kModules.size(); ++i) {
      if (kModules[i] == m) return static_cast<int>(i);
    }
    return -2;
  };
  EXPECT_EQ(module_of_symbol("rdmamon::net::Nic::rdma_read(int, unsigned)"),
            idx("net"));
  EXPECT_EQ(module_of_symbol("rdmamon::web::WebServer::worker("
                             "rdmamon::os::SimThread&) [clone .actor]"),
            idx("web"));
  EXPECT_EQ(module_of_symbol("rdmamon::net::Nic::rx(rdmamon::net::Message)::"
                             "{lambda()#1}::operator()() const"),
            idx("net"));
  EXPECT_EQ(module_of_symbol("void rdmamon::sim::InlineFn::call<"
                             "rdmamon::lb::X>(void*)"),
            idx("sim"));
  EXPECT_EQ(module_of_symbol("rdmamon::os::(anonymous namespace)::f(int)"),
            idx("os"));
  EXPECT_EQ(module_of_symbol("std::_Function_handler<void (), "
                             "rdmamon::net::Foo>::_M_invoke(std::_Any_data "
                             "const&)"),
            -1);
  EXPECT_EQ(module_of_symbol("perfbench::run_rep(int)"), -1);
  EXPECT_EQ(module_of_symbol("rdmamon::nosuchmodule::f()"), -1);
}

double spin_unattributed(double seconds) {
  volatile double x = 1.0;
  const std::clock_t end =
      std::clock() + static_cast<std::clock_t>(seconds * CLOCKS_PER_SEC);
  while (std::clock() < end) {
    for (int i = 0; i < 1000; ++i) x = x * 1.0000001 + 1e-9;
  }
  return x;
}

TEST(Profiler, ChargesSamplesToTheInnermostModuleFrame) {
  Profiler prof;
  prof.arm();
  rdmamon::web::spin_web(0.4);
  prof.disarm();
  prof.drain();
  const ProfileCounts& c = prof.counts();
  ASSERT_GT(c.total, 40u);
  EXPECT_GT(c.share("web"), 0.9);

  prof.arm();
  rdmamon::net::spin_net(0.3);
  spin_unattributed(0.3);
  prof.disarm();
  prof.drain();
  EXPECT_GT(c.share("net"), 0.2);
  EXPECT_GT(c.other_share(), 0.2);
  double sum = c.other_share();
  for (std::string_view m : kModules) sum += c.share(m);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// The workloads: output checks pass on the tuning seed and on the
// held-out seed, the seeds give different outputs, and tracing (registry,
// spans, profiler) leaves the simulated outputs unchanged.
class WorkloadTest : public ::testing::TestWithParam<Workload> {};

TEST_P(WorkloadTest, ChecksPassOnTwoSeedsAndTracingDoesNotPerturb) {
  const std::uint64_t armed = Profiler::times_armed();
  const RepResult a = run_rep(GetParam(), 1, {});
  EXPECT_EQ(Profiler::times_armed(), armed)
      << "an untraced repetition armed the profiler";
  EXPECT_TRUE(a.failures.empty()) << a.failures.front();
  EXPECT_GT(a.ops, 0u);
  EXPECT_EQ(a.failed, 0u);

  const RepResult b = run_rep(GetParam(), 2, {});
  EXPECT_TRUE(b.failures.empty()) << b.failures.front();
  EXPECT_NE(a.digest, b.digest);

  Profiler prof;
  SpanLog spans(1 << 18);
  const RepResult t = run_rep(GetParam(), 1, {&spans, &prof});
  EXPECT_TRUE(t.failures.empty()) << t.failures.front();
  EXPECT_EQ(t.digest, a.digest);
  EXPECT_GT(prof.counts().total, 0u);
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadTest, ::testing::ValuesIn(kWorkloads),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace perfbench
