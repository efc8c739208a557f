// Fault resilience: availability of the monitoring path per scheme while
// the back end is healthy, frozen (hung kernel, NIC alive), crashed, and
// behind a lossy degraded link — plus a whole-cluster failover run.
// Paper shape: a frozen host stops answering socket probes but its NIC
// keeps serving one-sided RDMA READs; a crashed host answers nothing, and
// the front end's bounded fetch turns that into fast failure detection
// instead of a hang.
#include <string>
#include <vector>

#include "args.hpp"
#include "common.hpp"
#include "report.hpp"
#include "fault/fault.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/simulation.hpp"
#include "web/cluster.hpp"

namespace {

using namespace rdmamon;
using monitor::Scheme;

constexpr int kPhases = 4;
const char* kPhaseNames[kPhases] = {"healthy", "frozen", "crashed",
                                    "lossy link"};

struct PhaseStats {
  int issued = 0;
  int okay = 0;
  double availability() const {
    return issued > 0 ? 100.0 * okay / issued : 0.0;
  }
};

/// One scheme through the four phases; every phase lasts `phase_len` with
/// a small guard gap so recovery from one fault never bleeds into the
/// next phase's numbers.
std::vector<PhaseStats> run_phases(Scheme scheme, sim::Duration phase_len) {
  sim::Simulation simu;
  net::Fabric fabric(simu, {});
  os::Node frontend(simu, {.name = "frontend"});
  os::Node backend(simu, {.name = "backend"});
  fabric.attach(frontend);
  fabric.attach(backend);

  monitor::MonitorConfig mcfg;
  mcfg.scheme = scheme;
  mcfg.fetch_timeout = sim::msec(5);
  mcfg.fetch_retries = 2;
  mcfg.retry_backoff = sim::msec(2);
  monitor::MonitorChannel chan(fabric, frontend, backend, mcfg);

  const sim::Duration guard = sim::msec(50);
  const sim::Duration window = phase_len - guard - guard;
  fault::FaultPlan plan;
  plan.freeze_for(backend.id, sim::TimePoint{(phase_len + guard).ns}, window);
  plan.crash_for(backend.id, sim::TimePoint{(phase_len * 2 + guard).ns},
                 window);
  plan.degrade_link_for(backend.id,
                        sim::TimePoint{(phase_len * 3 + guard).ns}, window,
                        sim::usec(300), /*loss=*/0.3);
  fault::FaultInjector inj(fabric);
  inj.arm(plan);

  std::vector<PhaseStats> phases(kPhases);
  frontend.spawn("mon", [&](os::SimThread& self) -> os::Program {
    for (;;) {
      co_await os::SleepFor{sim::msec(10)};
      // Classify by issue instant, and only count fetches issued while
      // the phase's fault is actually active (or, for phase 0, before any
      // fault has ever been injected).
      const std::int64_t phase = simu.now().ns / phase_len.ns;
      const std::int64_t offset = simu.now().ns % phase_len.ns;
      monitor::MonitorSample s;
      co_await chan.frontend().fetch(self, s);
      if (phase < kPhases && offset >= guard.ns &&
          offset < (phase_len - guard).ns) {
        auto& p = phases[static_cast<std::size_t>(phase)];
        ++p.issued;
        if (s.ok) ++p.okay;
      }
    }
  });
  simu.run_for(phase_len * kPhases);
  return phases;
}

/// Whole-cluster failover: one back end crashes and recovers mid-run.
struct ClusterResult {
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed_over = 0;
  std::uint64_t fetch_failures = 0;
  std::string final_health;
};

ClusterResult run_cluster(Scheme scheme, sim::Duration run) {
  sim::Simulation simu;
  web::ClusterConfig cfg;
  cfg.backends = 4;
  cfg.scheme = scheme;
  cfg.lb_granularity = sim::msec(10);
  cfg.fetch_timeout = sim::msec(5);
  cfg.fetch_retries = 1;
  cfg.retry_backoff = sim::msec(1);
  cfg.seed = 7;
  web::ClusterTestbed bed(simu, cfg);
  web::ClientGroupConfig ccfg;
  ccfg.threads_per_node = 8;
  ccfg.think = sim::msec(5);
  web::ClientGroup& g = bed.add_clients(2, web::make_rubis_generator(), ccfg);

  fault::FaultInjector inj(bed.fabric());
  fault::FaultPlan plan;
  plan.crash_for(bed.backend(0).id, sim::TimePoint{(run / 4).ns}, run / 4);
  inj.arm(plan);
  simu.run_for(run);

  ClusterResult r;
  r.completed = g.stats().completed();
  r.rejected = g.stats().rejected();
  r.failed_over = bed.dispatcher().failed_over();
  r.fetch_failures = bed.balancer().fetch_failures();
  for (int b = 0; b < cfg.backends; ++b) {
    if (b) r.final_health += '/';
    r.final_health += lb::to_string(bed.balancer().health_of(b));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;
  rdmamon::bench::banner(
      "Fault resilience", "Monitoring availability under injected faults",
      "one-sided RDMA monitoring survives a hung kernel; bounded fetches "
      "turn dead peers into fast, clean failures");

  const sim::Duration phase_len =
      opts.quick ? sim::msec(500) : sim::seconds(2);

  rdmamon::bench::JsonReport report("fault_resilience");
  report.stamp(opts.quick, opts.seed);
  report.set("phase_seconds", phase_len.seconds());

  util::Table table;
  std::vector<std::string> header = {"scheme"};
  for (const char* p : kPhaseNames) {
    header.push_back(std::string(p) + " avail%");
  }
  table.set_header(header);
  table.set_align(0, util::Align::Left);
  for (Scheme s : monitor::kTransportSchemes) {
    const auto phases = run_phases(s, phase_len);
    std::vector<std::string> row = {monitor::to_string(s)};
    for (const auto& p : phases) row.push_back(num(p.availability(), 1));
    table.add_row(row);
    for (int ph = 0; ph < kPhases; ++ph) {
      auto& r = report.add_result();
      r["scheme"] = monitor::to_string(s);
      r["phase"] = kPhaseNames[ph];
      r["issued"] = phases[static_cast<std::size_t>(ph)].issued;
      r["okay"] = phases[static_cast<std::size_t>(ph)].okay;
      r["availability_pct"] =
          phases[static_cast<std::size_t>(ph)].availability();
    }
  }
  std::cout << "\nFetch availability per fault phase (timeout 5 ms, "
               "2 retries):\n";
  rdmamon::bench::show(table);
  std::cout << "frozen: socket probes need the hung host's kernel; the "
               "RDMA READ is served by the NIC's DMA engine.\n"
               "crashed: nobody answers — what matters is that every "
               "fetch still resolves (timeout/error), never hangs.\n";

  const sim::Duration cluster_run =
      opts.quick ? sim::seconds(2) : sim::seconds(6);
  util::Table ctable;
  ctable.set_header({"scheme", "completed", "rejected", "failed over",
                     "fetch failures", "final health"});
  ctable.set_align(0, util::Align::Left);
  auto& failover = report.root()["cluster_failover"];
  failover = util::JsonValue::array();
  for (Scheme s : monitor::kTransportSchemes) {
    const ClusterResult r = run_cluster(s, cluster_run);
    ctable.add_row({monitor::to_string(s), std::to_string(r.completed),
                    std::to_string(r.rejected), std::to_string(r.failed_over),
                    std::to_string(r.fetch_failures), r.final_health});
    auto& j = failover.push_back(util::JsonValue::object());
    j["scheme"] = monitor::to_string(s);
    j["completed"] = r.completed;
    j["rejected"] = r.rejected;
    j["failed_over"] = r.failed_over;
    j["fetch_failures"] = r.fetch_failures;
    j["final_health"] = r.final_health;
  }
  std::cout << "\nWhole-cluster failover (4 back ends, backend0 crashes for "
               "a quarter of the run, then recovers):\n";
  rdmamon::bench::show(ctable);
  std::cout << "pending requests on the dead back end are rejected so "
               "clients re-traffic the survivors; the back end is "
               "re-admitted after recovery.\n";
  return report.write() ? 0 : 1;
}
