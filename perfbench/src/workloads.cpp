#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "lb/balancer.hpp"
#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/nic.hpp"
#include "os/node.hpp"
#include "profiler.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "spans.hpp"
#include "telemetry/registry.hpp"
#include "web/cluster.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {

using namespace rdmamon;

const char* to_string(Workload w) {
  switch (w) {
    case Workload::RubisZipf: return "rubis_zipf";
    case Workload::MonitorPull: return "monitor_pull";
    case Workload::MonitorPush: return "monitor_push";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view s) {
  for (Workload w : kWorkloads) {
    if (s == to_string(w)) return w;
  }
  return std::nullopt;
}

namespace {

/// Host time is taken per slice of this much simulated time.
constexpr sim::Duration kSlice = sim::msec(10);

/// FNV-1a over the simulated outputs.
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

double busy_ns(const os::Node& n) {
  double sum = 0;
  for (int c = 0; c < n.stats().num_cpus(); ++c) {
    sum += static_cast<double>(n.stats().cpu(c).busy().ns);
  }
  return sum;
}

double registry_sum(const telemetry::Snapshot& snap, std::string_view name) {
  double sum = 0;
  for (const auto& e : snap.entries) {
    if (e.name == name) sum += e.value;
  }
  return sum;
}

/// One workload instance. Owns the simulation; the telemetry registry
/// (traced repetitions only) is installed before any wiring, as
/// components resolve their instruments at construction.
class Scenario {
 public:
  explicit Scenario(const Tracing& tr) : spans_(tr.spans) {
    if (tr.spans != nullptr) {
      reg_ = std::make_unique<telemetry::Registry>();
      reg_->install(simu_);
    }
  }
  virtual ~Scenario() = default;

  sim::Simulation& simu() { return simu_; }
  virtual sim::Duration warmup() const = 0;
  virtual sim::Duration timed() const = 0;

  /// Reads every cumulative counter the layers expose.
  void read(Counters& c) {
    c.events = simu_.events_executed();
    c.cancelled = simu_.events_cancelled();
    net::Fabric& f = fabric();
    for (int id = 0; id < f.num_nodes(); ++id) {
      c.context_switches += f.node(id).sched().context_switches();
      const net::Nic& nic = f.nic(id);
      c.rdma_posted += nic.rdma_ops_posted();
      c.packets += nic.tx_packets();
      c.rdma_wire_bytes += nic.rdma_wire_bytes();
      c.rx_deferred += nic.rx_deferred();
    }
    c.frontend_busy_ns = busy_ns(frontend());
    for (const os::Node* b : backends()) c.backend_busy_ns += busy_ns(*b);
    const lb::LoadBalancer& lb = balancer();
    c.fetches_ok = lb.fetch_latency_ns().count();
    c.fetch_latency_sum_ns = lb.fetch_latency_ns().sum();
    c.fetch_failures = lb.fetch_failures();
    read_extra(c);
    if (reg_ != nullptr) {
      const telemetry::Snapshot snap = reg_->snapshot();
      c.doorbells = registry_sum(snap, "net.doorbells");
      c.scatter_rounds = registry_sum(snap, "scatter.rounds");
      c.socket_msgs = registry_sum(snap, "net.socket.tx_msgs");
    }
  }

  int frontend_cpus() { return frontend().stats().num_cpus(); }
  int backend_cpus() {
    int sum = 0;
    for (const os::Node* b : backends()) sum += b->stats().num_cpus();
    return sum;
  }

  /// Called between warm-up and the timed phase.
  virtual void begin_timed() = 0;
  /// Called after each timed slice, outside the host-timed interval.
  virtual void after_slice(RepResult& r) = 0;
  /// Fills the simulated outputs, the digest and the output checks.
  virtual void finish(RepResult& r) = 0;

 protected:
  virtual net::Fabric& fabric() = 0;
  virtual os::Node& frontend() = 0;
  virtual std::vector<os::Node*> backends() = 0;
  virtual lb::LoadBalancer& balancer() = 0;
  virtual void read_extra(Counters&) {}

  /// Times `fn` as a span of kind `k` when this repetition is traced and
  /// in its timed phase; otherwise just calls it.
  template <class Fn>
  auto timed_call(SpanLog::Kind k, Fn&& fn) {
    if (spans_ == nullptr || !timed_phase_) return fn();
    const std::int64_t t0 = host_ns();
    auto out = fn();
    spans_->add(k, t0, host_ns());
    return out;
  }

  sim::Simulation simu_;
  std::unique_ptr<telemetry::Registry> reg_;
  SpanLog* spans_;
  bool timed_phase_ = false;
  Digest digest_;
};

// --- rubis_zipf ------------------------------------------------------------
// The co-hosted RUBiS + Zipf(0.5) testbed of Figs 7 and 9: eight back
// ends, RDMA-Sync at 50 ms, transient disturbances, 4 + 4 client nodes of
// 16 closed-loop threads with 3 ms think time.
class RubisZipf final : public Scenario {
 public:
  static constexpr int kClientNodes = 4;
  static constexpr int kThreadsPerNode = 16;
  static constexpr std::size_t kLogCap = 4096;

  RubisZipf(std::uint64_t seed, const Tracing& tr) : Scenario(tr) {
    web::ClusterConfig cfg;
    cfg.backends = 8;
    cfg.scheme = monitor::Scheme::RdmaSync;
    cfg.lb_granularity = sim::msec(50);
    cfg.server.workers = 16;
    cfg.seed = seed;
    bed_ = std::make_unique<web::ClusterTestbed>(simu_, cfg);

    web::ClientGroupConfig ccfg;
    ccfg.threads_per_node = kThreadsPerNode;
    ccfg.think = sim::msec(3);
    rubis_ = &bed_->add_clients(kClientNodes,
                                wrap(web::make_rubis_generator()), ccfg);
    workload::ZipfTraceConfig zcfg;
    zcfg.alpha = 0.5;
    auto trace = std::make_shared<workload::ZipfTrace>(zcfg, seed + 1);
    zipf_ = &bed_->add_clients(kClientNodes,
                               wrap(web::make_zipf_generator(trace)), ccfg);

    os::NodeConfig icfg;
    icfg.name = "storage";
    infra_ = std::make_unique<os::Node>(simu_, icfg);
    bed_->fabric().attach(*infra_);
    disturb_ = std::make_unique<workload::DisturbanceGenerator>(
        bed_->fabric(), bed_->backend_ptrs(), *infra_,
        workload::DisturbanceConfig{}, sim::Rng(seed ^ 0x5eed));
    // Room for every dispatch of the timed phase (~9k/s), so recording
    // the view ages allocates nothing while the phase is being counted.
    ages_.reserve(static_cast<std::size_t>(timed().seconds() * 16384));
  }

  sim::Duration warmup() const override { return sim::seconds(2); }
  sim::Duration timed() const override { return sim::seconds(12); }

  void begin_timed() override {
    done_before_ = rubis_->stats().completed() + zipf_->stats().completed();
    rejected_before_ = rubis_->stats().rejected() + zipf_->stats().rejected();
    issued_before_ = issued_;
    rubis_->stats().reset();
    zipf_->stats().reset();
    clear_dispatch_log();
    timed_phase_ = true;
  }

  void after_slice(RepResult& r) override {
    const auto& log = bed_->balancer().dispatch_log();
    if (log.size() >= kLogCap) log_overflow_ = true;
    for (const lb::DispatchRecord& rec : log) {
      digest_.mix(static_cast<std::uint64_t>(rec.backend));
      digest_.mix(static_cast<std::uint64_t>(rec.view_age.ns));
      if (rec.view_age.ns < 0) {
        ++no_view_;
      } else {
        ages_.push_back(static_cast<double>(rec.view_age.ns));
      }
    }
    clear_dispatch_log();
    double depth = 0;
    for (int i = 0; i < bed_->backend_count(); ++i) {
      depth += static_cast<double>(bed_->server(i).queue_depth());
    }
    r.queue_depth_sum += depth / bed_->backend_count();
    r.pending_sum += static_cast<double>(bed_->dispatcher().pending());
    ++r.slice_samples;
  }

  void finish(RepResult& r) override {
    const web::ResponseStats& rs = rubis_->stats();
    const web::ResponseStats& zs = zipf_->stats();
    r.ops = rs.completed() + zs.completed();
    r.zipf_ops = zs.completed();
    r.failed = rs.rejected() + zs.rejected();
    r.attempted = issued_ - issued_before_;
    r.view_age_ns = std::move(ages_);
    r.latency_samples = r.ops;
    if (r.ops > 0) {
      r.latency_mean_ns = (rs.overall().sum() + zs.overall().sum()) /
                          static_cast<double>(r.ops);
    }
    for (int q = 0; q < workload::kRubisQueryCount; ++q) {
      if (rs.by_class(q).count() == 0) {
        r.failures.push_back("RUBiS query class " + std::to_string(q) +
                             " was never served");
      }
      digest_.mix(rs.by_class(q).count());
      digest_.mix(rs.by_class(q).sum());
    }
    if (zs.by_class(web::kStaticClass).count() == 0) {
      r.failures.push_back("Zipf static class was never served");
    }
    digest_.mix(zs.by_class(web::kStaticClass).count());
    digest_.mix(zs.by_class(web::kStaticClass).sum());
    // Closed loop: every issued request is completed, rejected, or still
    // held by one of the client threads.
    const std::uint64_t settled =
        done_before_ + rejected_before_ + r.ops + r.failed;
    const std::uint64_t threads = 2 * kClientNodes * kThreadsPerNode;
    if (settled > issued_ || issued_ - settled > threads) {
      r.failures.push_back("issued " + std::to_string(issued_) +
                           " requests but " + std::to_string(settled) +
                           " completed or rejected");
    }
    if (bed_->balancer().fetch_failures() != 0) {
      r.failures.push_back("monitoring fetches failed in a fault-free run");
    }
    if (no_view_ != 0) r.failures.push_back("dispatch without a load view");
    if (log_overflow_) r.failures.push_back("dispatch log overflowed");
    digest_.mix(issued_);
    digest_.mix(r.failed);
    digest_.mix(simu_.events_executed());
    r.digest = digest_.value();
  }

 protected:
  net::Fabric& fabric() override { return bed_->fabric(); }
  os::Node& frontend() override { return bed_->frontend(); }
  std::vector<os::Node*> backends() override { return bed_->backend_ptrs(); }
  lb::LoadBalancer& balancer() override { return bed_->balancer(); }

 private:
  /// Counts every request the clients issue and, in a traced timed
  /// phase, times each generator call.
  web::RequestGenerator wrap(web::RequestGenerator inner) {
    return [this, inner = std::move(inner)](sim::Rng& rng) {
      ++issued_;
      return timed_call(SpanLog::Gen, [&] { return inner(rng); });
    };
  }

  /// Empties the balancer's dispatch ring so that after each slice it
  /// holds exactly that slice's decisions.
  void clear_dispatch_log() {
    lb::LoadBalancer& lb = bed_->balancer();
    lb.set_dispatch_log_capacity(0);
    lb.set_dispatch_log_capacity(kLogCap);
  }

  std::unique_ptr<web::ClusterTestbed> bed_;
  web::ClientGroup* rubis_ = nullptr;
  web::ClientGroup* zipf_ = nullptr;
  std::unique_ptr<os::Node> infra_;
  std::unique_ptr<workload::DisturbanceGenerator> disturb_;
  std::vector<double> ages_;
  std::uint64_t issued_ = 0;
  std::uint64_t issued_before_ = 0;
  std::uint64_t done_before_ = 0;
  std::uint64_t rejected_before_ = 0;
  std::uint64_t no_view_ = 0;
  bool log_overflow_ = false;
};

// --- monitor_pull / monitor_push --------------------------------------------
// The monitoring plane alone, wired like bench_freshness: 256 back ends
// toggling load in 40 ms phases, one front end, and a bench-owned timer
// calling pick() 2,000 times per simulated second. Pull: RDMA-Sync scatter
// rounds every 5 ms. Push: publishers sample /proc every 5 ms and
// RDMA-WRITE changed loads into the front end's inbox, which a scanner
// consumes every 5 ms; the 50 ms wire rounds only verify silent slots.
class MonitorCluster final : public Scenario {
 public:
  static constexpr int kBackends = 256;
  static constexpr sim::Duration kPhase = sim::msec(40);
  static constexpr sim::Duration kPullRound = sim::msec(5);
  static constexpr sim::Duration kPushVerifyRound = sim::msec(50);
  static constexpr sim::Duration kPickEvery = sim::usec(500);

  MonitorCluster(bool push, std::uint64_t seed, const Tracing& tr)
      : Scenario(tr),
        push_(push),
        fabric_(simu_, {}),
        frontend_(simu_, {.name = "fe"}),
        lb_(lb::WeightConfig::for_scheme(monitor::Scheme::RdmaSync)),
        pick_rng_(seed ^ 0xd15ba7c4) {
    fabric_.attach(frontend_);
    monitor::MonitorConfig mcfg;
    mcfg.scheme = monitor::Scheme::RdmaSync;
    sim::Rng rng(seed);
    for (int i = 0; i < kBackends; ++i) {
      os::NodeConfig cfg;
      cfg.name = "be" + std::to_string(i);
      backends_.push_back(std::make_unique<os::Node>(simu_, cfg));
      fabric_.attach(*backends_.back());
      lb_.add_backend(std::make_unique<monitor::MonitorChannel>(
          fabric_, frontend_, *backends_.back(), mcfg));
      const sim::Duration offset{rng.uniform_int(0, 2 * kPhase.ns)};
      backends_.back()->spawn("toggler", [offset](os::SimThread& t) {
        return toggler_body(t, offset);
      });
    }
    if (push_) {
      monitor::PushConfig pushcfg;  // 5 ms checks, 100 ms heartbeat
      inbox_ = std::make_unique<monitor::PushInbox>(fabric_, frontend_,
                                                    kBackends,
                                                    pushcfg.slot_bytes);
      lb::PushPollConfig pcfg;
      pcfg.strategy = monitor::MonitorStrategy::Push;
      lb_.enable_push(*inbox_, pcfg);
      for (int i = 0; i < kBackends; ++i) {
        pubs_.push_back(std::make_unique<monitor::PushPublisher>(
            fabric_, *backends_[static_cast<std::size_t>(i)], pushcfg));
        pubs_.back()->target(frontend_.id, inbox_->mr_key(), i);
        pubs_.back()->start();
      }
    }
    lb_.start(frontend_, push_ ? kPushVerifyRound : kPullRound);
    ages_.reserve(static_cast<std::size_t>(2 * timed().ns / kPickEvery.ns));
    schedule_pick();
  }

  sim::Duration warmup() const override { return sim::msec(250); }
  sim::Duration timed() const override { return sim::seconds(3); }

  void begin_timed() override { timed_phase_ = true; }
  void after_slice(RepResult&) override {}

  void finish(RepResult& r) override {
    const Counters& a = r.at_warm;
    const Counters& b = r.at_end;
    if (push_) {
      r.ops = b.inbox_fresh - a.inbox_fresh;
      r.attempted = b.pushes - a.pushes;
      r.failed = b.push_errors - a.push_errors;
      if (inbox_->torn() != 0 || inbox_->regressed() != 0) {
        r.failures.push_back("inbox saw torn or regressed images");
      }
      if (inbox_->fresh() > inbox_->writes_applied()) {
        r.failures.push_back("more fresh images than writes applied");
      }
      digest_.mix(inbox_->fresh());
      digest_.mix(inbox_->writes_applied());
      digest_.mix(b.pushes);
      digest_.mix(b.heartbeats);
    } else {
      r.ops = b.fetches_ok - a.fetches_ok;
      r.failed = b.fetch_failures - a.fetch_failures;
      r.attempted = r.ops + r.failed;
      const double bound = static_cast<double>(
          (kPullRound + monitor::MonitorConfig{}.fetch_timeout).ns);
      for (double age : ages_) {
        if (age > bound) {
          r.failures.push_back("view age above granularity + fetch timeout");
          break;
        }
      }
      if (lb_.fetch_failures() != 0) {
        r.failures.push_back("monitoring fetches failed in a fault-free run");
      }
      digest_.mix(b.fetches_ok);
      digest_.mix(b.fetch_latency_sum_ns);
    }
    if (bad_picks_ != 0) r.failures.push_back("pick() chose a dead back end");
    if (no_view_ != 0) r.failures.push_back("pick() without a load view");
    r.view_age_ns = std::move(ages_);
    r.latency_samples = r.view_age_ns.size();
    double sum = 0;
    for (double v : r.view_age_ns) sum += v;
    if (r.latency_samples > 0) {
      r.latency_mean_ns = sum / static_cast<double>(r.latency_samples);
    }
    digest_.mix(lb_.fetch_failures());
    digest_.mix(simu_.events_executed());
    r.digest = digest_.value();
  }

 protected:
  net::Fabric& fabric() override { return fabric_; }
  os::Node& frontend() override { return frontend_; }
  std::vector<os::Node*> backends() override {
    std::vector<os::Node*> out;
    for (auto& b : backends_) out.push_back(b.get());
    return out;
  }
  lb::LoadBalancer& balancer() override { return lb_; }

  void read_extra(Counters& c) override {
    for (const auto& p : pubs_) {
      c.pushes += p->pushes();
      c.heartbeats += p->heartbeats();
      c.push_errors += p->errors();
    }
    if (inbox_ != nullptr) {
      c.inbox_writes = inbox_->writes_applied();
      c.inbox_fresh = inbox_->fresh();
    }
  }

 private:
  static os::Program toggler_body(os::SimThread&, sim::Duration offset) {
    co_await os::SleepFor{offset};
    for (;;) {
      co_await os::Compute{kPhase};
      co_await os::SleepFor{kPhase};
    }
  }

  /// Dispatch requests arrive as a Poisson process. A simulated thread
  /// would only wake on the 1 ms scheduler tick, which would halve the
  /// pick rate and lock every pick to the poll rounds' time grid.
  void schedule_pick() {
    const sim::Duration gap{static_cast<std::int64_t>(
        pick_rng_.exponential(static_cast<double>(kPickEvery.ns)))};
    simu_.after(gap, [this] {
      on_pick();
      schedule_pick();
    });
  }

  void on_pick() {
    const int b = timed_call(SpanLog::Pick, [this] { return lb_.pick(); });
    if (!timed_phase_) return;
    if (b < 0 || b >= kBackends ||
        lb_.health_of(b) == lb::BackendHealth::Dead) {
      ++bad_picks_;
    }
    const lb::DispatchRecord& rec = lb_.dispatch_log().back();
    digest_.mix(static_cast<std::uint64_t>(b));
    digest_.mix(static_cast<std::uint64_t>(rec.view_age.ns));
    if (rec.view_age.ns < 0) {
      ++no_view_;
    } else {
      ages_.push_back(static_cast<double>(rec.view_age.ns));
    }
  }

  bool push_;
  net::Fabric fabric_;
  os::Node frontend_;
  lb::LoadBalancer lb_;
  std::vector<std::unique_ptr<os::Node>> backends_;
  std::unique_ptr<monitor::PushInbox> inbox_;
  std::vector<std::unique_ptr<monitor::PushPublisher>> pubs_;
  sim::Rng pick_rng_;
  std::vector<double> ages_;
  std::uint64_t bad_picks_ = 0;
  std::uint64_t no_view_ = 0;
};

std::unique_ptr<Scenario> make_scenario(Workload w, std::uint64_t seed,
                                        const Tracing& tr) {
  switch (w) {
    case Workload::RubisZipf:
      return std::make_unique<RubisZipf>(seed, tr);
    case Workload::MonitorPull:
      return std::make_unique<MonitorCluster>(false, seed, tr);
    case Workload::MonitorPush:
      return std::make_unique<MonitorCluster>(true, seed, tr);
  }
  return nullptr;
}

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

}  // namespace

RepResult run_rep(Workload w, std::uint64_t seed, const Tracing& tr) {
  RepResult r;
  const AllocCount a0 = alloc_now();
  const std::int64_t t0 = host_ns();
  std::unique_ptr<Scenario> sc = make_scenario(w, seed, tr);
  const std::int64_t t1 = host_ns();
  const AllocCount a1 = alloc_now();
  r.construct_s = seconds_between(t0, t1);
  const std::int64_t warm_slices = sc->warmup().ns / kSlice.ns;
  r.warmup_slice_s.resize(static_cast<std::size_t>(warm_slices));
  for (double& slice_s : r.warmup_slice_s) {
    const std::int64_t s0 = host_ns();
    sc->simu().run_for(kSlice);
    slice_s = seconds_between(s0, host_ns());
  }
  const std::int64_t t2 = host_ns();
  const AllocCount a2 = alloc_now();
  r.alloc_construct = a1 - a0;
  r.alloc_warmup = a2 - a1;
  if (tr.spans != nullptr) {
    tr.spans->add(SpanLog::Construct, t0, t1);
    tr.spans->add(SpanLog::Warmup, t1, t2);
  }

  sc->read(r.at_warm);
  r.frontend_cpus = sc->frontend_cpus();
  r.backend_cpus = sc->backend_cpus();
  sc->begin_timed();
  const std::int64_t slices = sc->timed().ns / kSlice.ns;
  r.slice_host_s_per_sim_s.reserve(static_cast<std::size_t>(slices));
  const AllocCount a3 = alloc_now();
  if (tr.profiler != nullptr) tr.profiler->arm();
  for (std::int64_t k = 0; k < slices; ++k) {
    const std::int64_t s0 = host_ns();
    sc->simu().run_for(kSlice);
    const std::int64_t s1 = host_ns();
    if (tr.spans != nullptr) tr.spans->add(SpanLog::Slice, s0, s1);
    r.slice_host_s_per_sim_s.push_back(seconds_between(s0, s1) /
                                       kSlice.seconds());
    sc->after_slice(r);
  }
  if (tr.profiler != nullptr) tr.profiler->disarm();
  r.alloc_timed = alloc_now() - a3;
  r.timed_sim_s = static_cast<double>(slices) * kSlice.seconds();
  sc->read(r.at_end);
  sc->finish(r);
  if (tr.profiler != nullptr) tr.profiler->drain();
  return r;
}

}  // namespace perfbench
