// Information-age at dispatch: how old is the load view a dispatch
// decision is actually made on, per refresh strategy, as the cluster
// grows. Pull ages are bounded by the poll granularity (plus fetch
// latency); push ages by the publisher's change/heartbeat cadence and
// the inbox scan period; adaptive must land near the better of the two.
//
// Also the flight-recorder/lineage overhead proof: the same scenario is
// run with the telemetry plane (registry + flight recorder + lineage
// histograms) off and on, interleaved over many reps, and the median and
// interquartile range of the paired host wall-clock deltas are reported
// against the recorder's <= 1% budget ("inconclusive" when the spread is
// wider than the budget). Both planes are wall-clock-only bookkeeping, so
// the simulated age figures must be identical.
#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "args.hpp"
#include "common.hpp"
#include "report.hpp"
#include "lb/balancer.hpp"
#include "monitor/adaptive.hpp"
#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "os/node.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "sim/stats.hpp"
#include "telemetry/registry.hpp"

namespace {

using namespace rdmamon;
using monitor::Scheme;

struct FreshCell {
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t dispatches = 0;
  double wall_ms = 0.0;  ///< host cost of simulating the cell
};

/// Telemetry-plane variants of one cell (overhead isolation).
enum class Plane {
  Off,          ///< no registry installed at all
  RecorderOff,  ///< registry + lineage on, flight recorder disabled
  On,           ///< the always-on default: everything recording
};

/// One cluster under one refresh strategy: N toggling back ends, a
/// balancer polling at the paper's T = 50 ms, and a dispatcher picking
/// every 2 ms. Records the view age behind every pick.
FreshCell run_freshness(monitor::MonitorStrategy strat, int n,
                        std::uint64_t seed, sim::Duration horizon,
                        Plane plane) {
  const auto wall0 = std::chrono::steady_clock::now();
  sim::Simulation simu;
  telemetry::Registry reg;
  if (plane != Plane::Off) {
    reg.install(simu);
    reg.recorder().set_enabled(plane == Plane::On);
  }
  net::Fabric fabric(simu, {});
  os::Node frontend(simu, {.name = "fe"});
  fabric.attach(frontend);

  const lb::WeightConfig weights =
      lb::WeightConfig::for_scheme(Scheme::RdmaSync);
  lb::LoadBalancer lb(weights);
  monitor::MonitorConfig mcfg;
  mcfg.scheme = Scheme::RdmaSync;
  std::vector<std::unique_ptr<os::Node>> backends;
  sim::Rng rng(seed);
  const sim::Duration phase = sim::msec(40);  // load flips ~12x per second
  for (int i = 0; i < n; ++i) {
    os::NodeConfig cfg;
    cfg.name = "be" + std::to_string(i);
    backends.push_back(std::make_unique<os::Node>(simu, cfg));
    fabric.attach(*backends.back());
    lb.add_backend(std::make_unique<monitor::MonitorChannel>(
        fabric, frontend, *backends.back(), mcfg));
    const sim::Duration offset{rng.uniform_int(0, 2 * phase.ns)};
    backends.back()->spawn(
        "toggler", [phase, offset](os::SimThread&) -> os::Program {
          co_await os::SleepFor{offset};
          for (;;) {
            co_await os::Compute{phase};
            co_await os::SleepFor{phase};
          }
        });
  }

  monitor::PushConfig pushcfg;  // defaults: 5ms check, 100ms heartbeat
  std::unique_ptr<monitor::PushInbox> inbox;
  std::vector<std::unique_ptr<monitor::PushPublisher>> pubs;
  if (strat != monitor::MonitorStrategy::Pull) {
    inbox = std::make_unique<monitor::PushInbox>(fabric, frontend, n,
                                                 pushcfg.slot_bytes);
    lb::PushPollConfig pcfg;
    pcfg.strategy = strat;
    pcfg.adaptive.push_heartbeat = monitor::kPushMaxInterval;
    pcfg.adaptive.change_threshold = pushcfg.change_threshold;
    lb.enable_push(*inbox, pcfg);
    for (int i = 0; i < n; ++i) {
      pubs.push_back(std::make_unique<monitor::PushPublisher>(
          fabric, *backends[static_cast<std::size_t>(i)], pushcfg));
      pubs.back()->target(frontend.id, inbox->mr_key(), i);
    }
    lb.on_mode_change([&pubs](std::size_t b, monitor::FetchMode m) {
      if (m == monitor::FetchMode::Pull) {
        pubs[b]->pause();
      } else {
        pubs[b]->resume();
      }
    });
    for (auto& p : pubs) p->start();
  }
  lb.start(frontend, sim::msec(50));
  for (std::size_t b = 0; b < pubs.size(); ++b) {
    if (lb.fetch_mode(b) == monitor::FetchMode::Pull) pubs[b]->pause();
  }

  // The dispatcher: every pick() appends a DispatchRecord with the view
  // age the decision used; reading the ring's tail right after the pick
  // gives the exact per-dispatch lineage without unbounded buffering.
  const sim::Duration warmup = sim::seconds(1);
  sim::Histogram age_us;
  frontend.spawn("dispatcher", [&](os::SimThread&) -> os::Program {
    co_await os::SleepFor{warmup};
    for (;;) {
      (void)lb.pick();
      if (!lb.dispatch_log().empty()) {
        const lb::DispatchRecord& r = lb.dispatch_log().back();
        if (r.view_age.ns >= 0) {
          age_us.add(static_cast<double>(r.view_age.ns) / 1e3);
        }
      }
      co_await os::SleepFor{sim::msec(2)};
    }
  });
  simu.run_for(warmup + horizon);

  FreshCell cell;
  cell.mean_us = age_us.mean();
  cell.p50_us = age_us.percentile(0.50);
  cell.p99_us = age_us.percentile(0.99);
  cell.dispatches = age_us.count();
  cell.wall_ms = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - wall0)
                     .count();
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = rdmamon::bench::parse_args(argc, argv);
  using rdmamon::bench::num;
  rdmamon::bench::banner(
      "freshness", "Information age at dispatch per refresh strategy",
      "how stale is the view a dispatch decision is actually made on; "
      "push/adaptive buy freshness that polling granularity cannot");

  const std::vector<int> ns =
      opts.quick ? std::vector<int>{16, 64} : std::vector<int>{64, 256};
  const sim::Duration horizon =
      opts.quick ? sim::seconds(3) : sim::seconds(6);
  const std::vector<monitor::MonitorStrategy> strategies = {
      monitor::MonitorStrategy::Pull, monitor::MonitorStrategy::Push,
      monitor::MonitorStrategy::Adaptive};

  rdmamon::bench::JsonReport report("freshness");
  report.stamp(opts.quick, opts.seed);
  report.set("horizon_seconds", horizon.seconds());

  std::cout << "\n--- information age at dispatch: p50 / p99 (us) ---\n";
  rdmamon::util::Table table;
  std::vector<std::string> header = {"strategy"};
  for (int n : ns) header.push_back("N=" + std::to_string(n));
  table.set_header(header);
  table.set_align(0, rdmamon::util::Align::Left);
  for (const monitor::MonitorStrategy strat : strategies) {
    std::vector<std::string> row = {monitor::to_string(strat)};
    for (int n : ns) {
      const FreshCell c =
          run_freshness(strat, n, opts.seed, horizon, Plane::On);
      row.push_back(num(c.p50_us, 1) + " / " + num(c.p99_us, 1));
      auto& r = report.add_result();
      r["strategy"] = monitor::to_string(strat);
      r["n"] = n;
      r["age_mean_us"] = c.mean_us;
      r["age_p50_us"] = c.p50_us;
      r["age_p99_us"] = c.p99_us;
      r["dispatches"] = static_cast<double>(c.dispatches);
      r["wall_ms"] = c.wall_ms;
    }
    table.add_row(row);
  }
  rdmamon::bench::show(table);

  // --- recorder + lineage overhead ----------------------------------------
  // Same scenario, three telemetry-plane variants: no registry at all,
  // registry with the flight recorder disabled, and the always-on
  // default. Both planes are host-side bookkeeping only, so the simulated
  // age figures must match exactly; the wall deltas price them. The
  // recorder's own delta (recorder-off -> on) carries the <= 1% budget.
  // The variants are interleaved rep by rep and each delta is taken
  // within one rep, so a slow host period hits both sides of a pair; the
  // median over reps is the estimate and the interquartile range its
  // spread. A spread wider than the budget cannot tell within-budget from
  // over-budget, so the verdict is then "inconclusive" — never a number.
  const int on = ns.back();
  const monitor::MonitorStrategy ostrat = monitor::MonitorStrategy::Adaptive;
  const int reps = opts.quick ? 15 : 21;
  // Runs long enough (~0.1 s of host time at --quick) that one pair's
  // delta is not dominated by timer and cache noise.
  const sim::Duration oh_horizon = horizon * 4;
  constexpr double kBudgetPct = 1.0;
  std::cout << "\nRecorder + lineage overhead (" << reps
            << " interleaved reps, median [IQR] of paired deltas):\n";
  const Plane planes[3] = {Plane::Off, Plane::RecorderOff, Plane::On};
  std::vector<double> wall[3];
  std::vector<double> recorder_deltas;
  std::vector<double> plane_deltas;
  double age[3] = {0.0, 0.0, 0.0};
  for (int r = 0; r < reps; ++r) {
    double w[3];
    for (int p = 0; p < 3; ++p) {
      const FreshCell c = run_freshness(ostrat, on, opts.seed, oh_horizon,
                                        planes[p]);
      w[p] = c.wall_ms;
      wall[p].push_back(c.wall_ms);
      age[p] = c.mean_us;
    }
    recorder_deltas.push_back((w[2] / w[1] - 1.0) * 100.0);
    plane_deltas.push_back((w[2] / w[0] - 1.0) * 100.0);
  }
  struct Spread {
    double median, q1, q3;
  };
  auto spread = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    auto q = [&](double f) {
      const double pos = f * static_cast<double>(v.size() - 1);
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, v.size() - 1);
      return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
    };
    return Spread{q(0.5), q(0.25), q(0.75)};
  };
  const Spread rec = spread(recorder_deltas);
  const Spread plane = spread(plane_deltas);
  const double rec_iqr = rec.q3 - rec.q1;
  const char* verdict = rec_iqr > kBudgetPct    ? "inconclusive"
                        : rec.median <= kBudgetPct ? "within budget"
                                                   : "over budget";
  std::cout << "  adaptive, N=" << on << ": median wall no-registry "
            << num(spread(wall[0]).median, 1) << "ms, recorder-off "
            << num(spread(wall[1]).median, 1) << "ms, recorder-on "
            << num(spread(wall[2]).median, 1) << "ms\n  recorder delta ";
  if (rec_iqr > kBudgetPct) {
    std::cout << "inconclusive";
  } else {
    std::cout << num(rec.median, 2) << "%";
  }
  std::cout << " [IQR " << num(rec.q1, 2) << " .. " << num(rec.q3, 2)
            << "%] (budget <= " << num(kBudgetPct, 0) << "%: " << verdict
            << "); whole telemetry plane " << num(plane.median, 2)
            << "% [IQR " << num(plane.q1, 2) << " .. " << num(plane.q3, 2)
            << "%]\n  simulated mean age across variants: " << num(age[0], 2)
            << " / " << num(age[1], 2) << " / " << num(age[2], 2)
            << "us (must be identical: recording charges no simulated "
               "time)\n";
  auto& o = report.root()["recorder_overhead"];
  o = rdmamon::util::JsonValue::object();
  o["strategy"] = monitor::to_string(ostrat);
  o["n"] = on;
  o["reps"] = reps;
  o["wall_ms_no_registry"] = spread(wall[0]).median;
  o["wall_ms_recorder_off"] = spread(wall[1]).median;
  o["wall_ms_recorder_on"] = spread(wall[2]).median;
  o["recorder_delta_median_pct"] = rec.median;
  o["recorder_delta_q1_pct"] = rec.q1;
  o["recorder_delta_q3_pct"] = rec.q3;
  o["recorder_budget_pct"] = kBudgetPct;
  o["recorder_verdict"] = verdict;
  o["telemetry_plane_delta_median_pct"] = plane.median;
  o["telemetry_plane_delta_q1_pct"] = plane.q1;
  o["telemetry_plane_delta_q3_pct"] = plane.q3;
  o["ages_match"] = age[0] == age[1] && age[1] == age[2];

  return report.write() ? 0 : 1;
}
