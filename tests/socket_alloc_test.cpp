// Allocation gate for the served-request path. Once warm, a closed-loop
// client -> dispatcher -> web server -> dispatcher -> client round trip
// must allocate at most a small fixed number of times per request: socket
// messages ride in pooled fabric slots with inline payloads, IRQ bodies
// and run/wait queues keep their storage and coroutine frames recycle.
// What is left is the dispatcher's pending-request table node. A counting
// operator new brackets exactly the steady-state phase.
#include <gtest/gtest.h>

#include <cstdint>

#include "alloc_count.hpp"
#include "os/program.hpp"
#include "sim/simulation.hpp"
#include "web/cluster.hpp"

namespace rdmamon {
namespace {

TEST(SocketAlloc, WarmRoundTripsAllocateAtMostOncePerRequest) {
  // Measured 0.999 per request (2366 over 2368): one Dispatcher::pending_
  // node per request; the dispatch log is a ring that keeps its storage.
  constexpr double kPerRequest = 1.0;
  // Without the frame pool (AddressSanitizer builds) every subprogram
  // call allocates its frame: socket send and recv at the client, the
  // dispatcher's forwarder and router and the server's rx thread and
  // worker — eight per request — and the balancer's scatter poll round
  // (round_all, round, post_read_batch) three per round.
  constexpr double kFramesPerRequest = os::kFramesPooled ? 0.0 : 8.0;
  constexpr double kFramesPerPollRound = os::kFramesPooled ? 0.0 : 3.0;
  const sim::Duration window = sim::seconds(2);

  sim::Simulation simu;
  web::ClusterConfig cfg;
  cfg.backends = 2;
  web::ClusterTestbed bed(simu, cfg);
  web::ClientGroupConfig ccfg;
  ccfg.threads_per_node = 8;
  ccfg.think = sim::msec(3);
  web::ClientGroup& clients =
      bed.add_clients(2, web::make_rubis_generator(), ccfg);

  simu.run_for(sim::seconds(3));  // warm: pools and queues reach peak size
  const std::uint64_t done0 = clients.stats().completed();
  const std::uint64_t allocs0 = support::allocations();
  simu.run_for(window);
  const std::uint64_t allocs = support::allocations() - allocs0;
  const std::uint64_t requests = clients.stats().completed() - done0;

  ASSERT_GT(requests, 1000u) << "the closed loop barely ran";
  const double rounds = static_cast<double>(window.ns / cfg.lb_granularity.ns);
  const double ceiling =
      (kPerRequest + kFramesPerRequest) * static_cast<double>(requests) +
      kFramesPerPollRound * rounds;
  EXPECT_LE(static_cast<double>(allocs), ceiling)
      << allocs << " allocations over " << requests << " requests";
}

}  // namespace
}  // namespace rdmamon
