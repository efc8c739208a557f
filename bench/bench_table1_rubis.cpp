// Table 1: RUBiS average and maximum response time per query class, under
// WebSphere-style least-loaded balancing driven by each monitoring scheme.
// Paper shape: all schemes have similar small averages; RDMA-Sync and
// e-RDMA-Sync cut the *maximum* response times dramatically (up to ~90% on
// Browse-class queries) because the balancer never acts on stale data, and
// e-RDMA-Sync is consistently the best of all.
#include "args.hpp"
#include "common.hpp"
#include "report.hpp"
#include "web/cluster.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace rdmamon;
using monitor::Scheme;

struct ClassTimes {
  double avg_ms = 0;
  double max_ms = 0;
};

std::array<ClassTimes, workload::kRubisQueryCount> run_scheme(
    Scheme scheme, sim::Duration run, sim::Duration warmup,
    std::uint64_t seed) {
  sim::Simulation simu;
  web::ClusterConfig cfg;
  cfg.backends = 8;
  cfg.scheme = scheme;
  cfg.seed = seed;
  web::ClusterTestbed bed(simu, cfg);
  web::ClientGroupConfig ccfg;
  ccfg.threads_per_node = 8;
  ccfg.think = sim::msec(15);
  web::ClientGroup& g =
      bed.add_clients(8, web::make_rubis_generator(), ccfg);
  // Shared enterprise environment: transient co-hosted bursts (compute +
  // network chatter with the storage node) hit random back ends; the
  // balancer must route around them.
  os::Node infra(simu, {.name = "storage"});
  bed.fabric().attach(infra);
  workload::DisturbanceGenerator disturb(bed.fabric(), bed.backend_ptrs(),
                                         infra, {}, sim::Rng(seed ^ 0x5eed));
  simu.after(warmup, [&g] { g.stats().reset(); });
  simu.run_for(warmup + run);

  std::array<ClassTimes, workload::kRubisQueryCount> out;
  for (int q = 0; q < workload::kRubisQueryCount; ++q) {
    const auto& st = g.stats().by_class(q);
    out[static_cast<std::size_t>(q)] =
        ClassTimes{st.mean() / 1e6, st.max() / 1e6};
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;
  rdmamon::bench::banner(
      "Table 1", "RUBiS response times per query class, per scheme",
      "similar averages; maxima drop sharply for RDMA-Sync/e-RDMA-Sync");

  const sim::Duration run = opts.quick ? sim::seconds(6) : sim::seconds(30);
  const sim::Duration warmup =
      opts.quick ? sim::seconds(2) : sim::seconds(4);

  std::array<std::array<ClassTimes, workload::kRubisQueryCount>, 5> results;
  for (std::size_t i = 0; i < monitor::kAllSchemes.size(); ++i) {
    results[i] =
        run_scheme(monitor::kAllSchemes[i], run, warmup, opts.seed);
  }

  auto print_table = [&](const char* title, bool use_max) {
    rdmamon::util::Table t;
    std::vector<std::string> header = {"Query"};
    for (monitor::Scheme s : monitor::kAllSchemes) {
      header.push_back(monitor::to_string(s));
    }
    t.set_header(header);
    t.set_align(0, rdmamon::util::Align::Left);
    for (int q = 0; q < workload::kRubisQueryCount; ++q) {
      std::vector<std::string> row = {
          workload::to_string(static_cast<workload::RubisQuery>(q))};
      for (std::size_t i = 0; i < monitor::kAllSchemes.size(); ++i) {
        const ClassTimes& ct = results[i][static_cast<std::size_t>(q)];
        row.push_back(num(use_max ? ct.max_ms : ct.avg_ms, 1));
      }
      t.add_row(row);
    }
    std::cout << '\n' << title << " (ms):\n";
    rdmamon::bench::show(t);
  };

  print_table("Average response time", false);
  print_table("Maximum response time", true);

  rdmamon::bench::JsonReport report("table1_rubis");
  report.stamp(opts.quick, opts.seed);
  for (std::size_t i = 0; i < monitor::kAllSchemes.size(); ++i) {
    for (int q = 0; q < workload::kRubisQueryCount; ++q) {
      const ClassTimes& ct = results[i][static_cast<std::size_t>(q)];
      auto& r = report.add_result();
      r["scheme"] = monitor::to_string(monitor::kAllSchemes[i]);
      r["query"] =
          workload::to_string(static_cast<workload::RubisQuery>(q));
      r["avg_ms"] = ct.avg_ms;
      r["max_ms"] = ct.max_ms;
    }
  }

  // Headline: max-response improvement of RDMA-Sync vs Socket-Async on the
  // Browse-class queries the paper calls out.
  const int browse = static_cast<int>(workload::RubisQuery::Browse);
  const double sock = results[0][static_cast<std::size_t>(browse)].max_ms;
  const double rdma = results[3][static_cast<std::size_t>(browse)].max_ms;
  if (sock > 0) {
    std::cout << "\nBrowse max response: Socket-Async " << num(sock, 1)
              << "ms vs RDMA-Sync " << num(rdma, 1) << "ms ("
              << num((1.0 - rdma / sock) * 100.0, 0)
              << "% reduction; paper reports ~90%/77% on Browse-class)\n";
    auto& h = report.root()["headline"];
    h = rdmamon::util::JsonValue::object();
    h["browse_max_socket_async_ms"] = sock;
    h["browse_max_rdma_sync_ms"] = rdma;
    h["reduction_pct"] = (1.0 - rdma / sock) * 100.0;
  }
  return report.write() ? 0 : 1;
}
