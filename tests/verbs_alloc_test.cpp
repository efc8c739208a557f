// Allocation gate for the RDMA-Sync pull path. Once warm, a scatter round
// over many back ends allocates nothing: the fetched snapshot rides inline
// in the completion's payload, and work-request records, completions, CQ
// storage, round scratch, the NIC's wire-leg events and the round's
// coroutine frames all recycle. A counting operator new brackets exactly
// the steady-state rounds (gtest itself allocates outside the bracket).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "monitor/monitor.hpp"
#include "monitor/scatter.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "os/program.hpp"
#include "sim/simulation.hpp"

namespace rdmamon {
namespace {

TEST(VerbsAlloc, SteadyStateScatterRoundAllocatesNothing) {
  constexpr int kBackends = 64;
  constexpr int kWarmRounds = 5;
  constexpr int kRounds = 40;
  // Subprogram frames a round allocates when frames are not pooled
  // (AddressSanitizer builds): round_all, round and post_read_batch.
  constexpr std::uint64_t kFramesPerRound = os::kFramesPooled ? 0 : 3;

  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node fe(simu, {.name = "fe"});
  fabric.attach(fe);
  monitor::MonitorConfig mcfg;
  mcfg.scheme = monitor::Scheme::RdmaSync;
  std::vector<std::unique_ptr<os::Node>> backends;
  std::vector<std::unique_ptr<monitor::MonitorChannel>> channels;
  monitor::ScatterFetcher scatter;
  for (int b = 0; b < kBackends; ++b) {
    backends.push_back(std::make_unique<os::Node>(
        simu, os::NodeConfig{.name = "be" + std::to_string(b)}));
    fabric.attach(*backends.back());
    channels.push_back(std::make_unique<monitor::MonitorChannel>(
        fabric, fe, *backends.back(), mcfg));
    scatter.add(channels.back()->frontend());
  }

  std::vector<monitor::MonitorSample> samples;
  std::uint64_t at_warm = 0;
  std::uint64_t at_end = 0;
  int ok = 0;
  fe.spawn("poller", [&](os::SimThread& self) -> os::Program {
    for (int r = 0; r < kWarmRounds + kRounds; ++r) {
      if (r == kWarmRounds) at_warm = support::allocations();
      co_await scatter.round_all(self, samples);
      if (r >= kWarmRounds) {
        for (const monitor::MonitorSample& s : samples) ok += s.ok ? 1 : 0;
      }
      co_await os::SleepFor{sim::msec(5)};
    }
    at_end = support::allocations();
  });
  simu.run_for(sim::seconds(1));

  ASSERT_GT(at_end, 0u) << "poller did not finish its rounds";
  const std::uint64_t reads =
      static_cast<std::uint64_t>(kBackends) * kRounds;
  ASSERT_EQ(ok, static_cast<int>(reads));
  const std::uint64_t allocs = at_end - at_warm;
  EXPECT_LE(allocs, kFramesPerRound * kRounds)
      << static_cast<double>(allocs) / static_cast<double>(reads)
      << " allocations per READ";
}

}  // namespace
}  // namespace rdmamon
