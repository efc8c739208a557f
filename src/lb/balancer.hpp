// WebSphere-style weighted load balancing (Section 5.2.1): CPU, memory,
// network and connection load indices are combined into one scalar; the
// dispatcher forwards each request to the least-loaded back end. The
// e-RDMA-Sync scheme additionally penalises back ends with pending
// interrupts (hidden load the classic indices miss).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "monitor/adaptive.hpp"
#include "monitor/inbox.hpp"
#include "monitor/monitor.hpp"
#include "monitor/scatter.hpp"
#include "monitor/scheme.hpp"
#include "os/node.hpp"
#include "sim/ring_queue.hpp"
#include "sim/time.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"

namespace rdmamon::lb {

/// Weights of the combined load index.
constexpr double kWeightCpu = 0.30;
constexpr double kWeightMem = 0.10;
constexpr double kWeightNet = 0.10;
constexpr double kWeightConn = 0.10;
/// Weight of the instantaneous run-queue length (nr_running). This is
/// the fastest-moving component of the index — the signal whose
/// staleness separates the schemes (the utilisation EMA is smoothed by
/// construction, run-queue length is not).
constexpr double kWeightRunq = 0.50;
/// Normalisers of the index components.
constexpr double kNetCapacityBps = 1.25e9;
constexpr int kConnCapacity = 128;
constexpr int kRunqCapacity = 8;  ///< runnable threads considered "saturated"

/// A server whose index reaches this is treated as overloaded and gets
/// zero weight (unless every server is overloaded) — the WebSphere
/// behaviour of taking a hot server out of rotation entirely.
constexpr double kOverloadCutoff = 0.75;

/// The scheme-dependent part of the load index.
struct WeightConfig {
  /// Added per pending interrupt (e-RDMA-Sync only; 0 elsewhere).
  double irq_penalty = 0.0;

  /// Defaults for a scheme: e-RDMA-Sync turns the IRQ term on.
  static WeightConfig for_scheme(monitor::Scheme s) {
    WeightConfig w;
    if (s == monitor::Scheme::ERdmaSync) w.irq_penalty = 0.15;
    return w;
  }
};

/// Scalar load index of one snapshot (higher = more loaded).
double load_index(const os::LoadSnapshot& info, const WeightConfig& w);

/// Failure-detector state of one back end, driven purely by monitoring
/// fetch outcomes (the only signal the front end has).
enum class BackendHealth {
  Healthy,  ///< fetches succeeding
  Suspect,  ///< >= kSuspectAfter consecutive failures; still dispatched
  Dead,     ///< >= kDeadAfter consecutive failures; out of rotation
};

inline const char* to_string(BackendHealth h) {
  switch (h) {
    case BackendHealth::Healthy: return "healthy";
    case BackendHealth::Suspect: return "suspect";
    case BackendHealth::Dead: return "dead";
  }
  return "?";
}

/// Thresholds of the consecutive-failure detector: failures before
/// Suspect, failures before Dead, and successes that re-admit a Dead one.
constexpr int kSuspectAfter = 1;
constexpr int kDeadAfter = 3;
constexpr int kReadmitAfter = 2;

/// Probe cadence of the consecutive-failure detector.
struct HealthConfig {
  /// A Dead back end is probed only every this many poll rounds: each
  /// probe costs a full fetch_timeout, so probing every round would let
  /// one dead server slow the whole poll loop. <= 1 probes every round.
  int dead_probe_every = 8;
};

/// Inbox silence that triggers a verification READ for a push-mode back
/// end: must exceed the publisher's heartbeat (monitor::kPushMaxInterval)
/// plus transport and scheduling slack, or healthy back ends get
/// needlessly verified. Silence shorter than this is neutral — it neither
/// feeds nor resets the failure detector.
constexpr sim::Duration kSilenceBound = sim::msec(150);
/// Front-end CPU cost of scanning one inbox slot (a local memory read
/// plus the seqlock checks; no doorbell, no wire).
constexpr sim::Duration kScanCost = sim::nsec(150);

/// Configuration of the push/adaptive refresh strategy (enable_push).
struct PushPollConfig {
  monitor::MonitorStrategy strategy = monitor::MonitorStrategy::Push;
  /// Controller tuning; used only when strategy == Adaptive. pull_period
  /// is overridden with the balancer's granularity at start().
  monitor::AdaptiveConfig adaptive;
};

/// One dispatch decision, kept in a bounded ring for post-mortems: who
/// was picked, on a view of what age, refreshed via which path, and why.
/// `via` and `reason` are static string literals — the ring never
/// allocates per pick.
struct DispatchRecord {
  sim::TimePoint at{};
  int backend = -1;
  /// now - the view's /proc sampling instant (the information age the
  /// decision was actually made on); -1ns when the winner had no view yet.
  sim::Duration view_age{-1};
  const char* via = "none";    ///< "pull" / "push" / "gossip" / "none"
  const char* reason = "wrr";  ///< "wrr" | "fallback" (no weighted pick)
  double weight = 0.0;         ///< winner's smooth-WRR weight
};

/// Tracks the latest monitoring sample per back end and picks the least
/// loaded. A poller thread on the front-end node refreshes the samples
/// every `granularity` — through the configured scheme, so the data is
/// exactly as fresh (or stale, or costly) as that scheme makes it.
/// Every fetch in the round arms (and on success cancels) a deadline
/// timer; those land on the event queue's near-future wheel, so the
/// fine granularities the paper argues for (Fig 9) scale to hundreds of
/// back ends without the simulator's timer plumbing becoming the cost.
class LoadBalancer {
 public:
  explicit LoadBalancer(WeightConfig weights) : weights_(weights) {}
  ~LoadBalancer();

  /// Registers a back end via its monitoring channel.
  void add_backend(std::unique_ptr<monitor::MonitorChannel> channel);

  /// Replaces the failure-detector thresholds (before or after start).
  void set_health_config(HealthConfig hc) { health_cfg_ = hc; }

  /// Verbs-layer tuning for the scatter engine's completion channel:
  /// cq_mod_count/period moderate consumer wakeups on the shared CQ (the
  /// signal-every-k and context-sharing halves live with the channels —
  /// see net::make_context_pool). Call before start(); the defaults keep
  /// the historical one-notify-per-completion behaviour.
  void set_verbs_tuning(net::VerbsTuning t) { verbs_ = t; }

  // --- push / adaptive strategy (monitor/inbox.hpp) ------------------------
  /// Enables the push-based refresh path: back end i's publisher targets
  /// slot i of `inbox` (which must have >= backends() slots and belong to
  /// the front-end node passed to start()). Push-mode back ends are
  /// refreshed by scanning their slot; a slot silent beyond
  /// kSilenceBound falls back to a verification READ through the
  /// back end's normal channel, and only that fetch's outcome drives the
  /// health ladder. Strategy Adaptive instantiates the per-backend
  /// controller at start(). Call after add_backend, before start();
  /// `inbox` must outlive the balancer.
  void enable_push(monitor::PushInbox& inbox, PushPollConfig cfg);

  /// Refresh mode of back end `i` this round (Pull when push is disabled
  /// or the adaptive controller says so).
  monitor::FetchMode fetch_mode(std::size_t i) const;

  /// Observer of adaptive mode switches (strategy Adaptive only; runs
  /// inside the poller). The wiring layer uses this to pause a back
  /// end's publisher while it is pull-mode and resume it on the way
  /// back. Call before start().
  void on_mode_change(std::function<void(std::size_t, monitor::FetchMode)> cb) {
    mode_cbs_.push_back(std::move(cb));
  }

  /// The adaptive controller (null unless strategy == Adaptive and
  /// start() has run).
  const monitor::AdaptiveController* adaptive() const {
    return adaptive_.get();
  }

  /// Fresh inbox images applied / verification READs triggered by silence.
  std::uint64_t push_fresh() const { return push_fresh_; }
  std::uint64_t push_verifications() const { return push_verifications_; }

  // --- scale-out hooks (src/cluster) ---------------------------------------
  /// Restricts the poller to back ends the predicate accepts — the
  /// scale-out plane's shard ownership filter. Re-evaluated every round,
  /// so a ring rebalance takes effect at the next poll with no rewiring.
  /// Back ends filtered out keep their samples/health state; feed them
  /// through ingest_peer_sample / note_stale instead.
  void set_poll_filter(std::function<bool(std::size_t)> f) {
    poll_filter_ = std::move(f);
  }

  /// Observer invoked (inside the poller) after each round's samples have
  /// been applied, with the round's target indices.
  void on_round(std::function<void(const std::vector<std::size_t>&)> cb) {
    round_cbs_.push_back(std::move(cb));
  }

  /// Merges a sample another front-end's poller retrieved (gossiped via a
  /// peer-view READ) as if this balancer had fetched it: updates the
  /// load sample and drives the same Healthy/Suspect/Dead detector.
  /// Only the local fetch-latency statistic is left untouched.
  void ingest_peer_sample(std::size_t i, const monitor::MonitorSample& s);

  /// Counts one staleness strike against back end `i`: the peer-view
  /// entry covering it exceeded the staleness bound, which is a
  /// monitoring failure exactly like a timed-out fetch, and feeds the
  /// same consecutive-failure thresholds (kSuspectAfter, kDeadAfter).
  void note_stale(std::size_t i);

  /// Resets back end `i`'s failure detector to Healthy (zeroed streaks),
  /// firing health callbacks if the state changes. Used on shard
  /// takeover: the new owner starts with a clean detector so the
  /// dead-probe cadence cannot throttle its first polls.
  void reset_health(std::size_t i);

  /// Labels this balancer's telemetry instruments with {frontend=<name>}
  /// so M balancers sharing one registry stay distinguishable. Empty
  /// (default) keeps the historical unlabelled names. Call before start().
  void set_telemetry_instance(std::string name) {
    telemetry_instance_ = std::move(name);
  }

  /// Spawns the front-end poller thread. Call once after add_backend.
  void start(os::Node& frontend, sim::Duration granularity);

  /// The poller spawned by start() (null before). The scale-out plane's
  /// stall() kills it to model a hung monitoring process.
  os::SimThread* poller_thread() { return poller_thread_; }

  /// Picks the next back end by smooth weighted round-robin over
  /// per-server weights w_i = max(floor, 1 - load_index_i), the WebSphere
  /// behaviour the paper references: servers reporting low load receive
  /// proportionally more requests; a server whose (fresh) index spikes is
  /// avoided almost entirely until it recovers. Stale indices keep
  /// feeding the hotspot — the failure mode fine-grained monitoring fixes.
  int pick();

  int backends() const { return static_cast<int>(channels_.size()); }
  double index_of(int backend) const {
    return index_[static_cast<std::size_t>(backend)];
  }
  const monitor::MonitorSample& last_sample(int backend) const {
    return samples_[static_cast<std::size_t>(backend)];
  }
  const WeightConfig& weights() const { return weights_; }
  /// Back end `backend`'s smooth weighted round-robin credit.
  double wrr_credit(int backend) const {
    return wrr_credit_[static_cast<std::size_t>(backend)];
  }

  // --- failure detection ---------------------------------------------------
  BackendHealth health_of(int backend) const {
    return health_[static_cast<std::size_t>(backend)].state;
  }
  /// Back ends currently in rotation (not Dead).
  int alive_backends() const { return alive_; }
  /// Total failed fetches seen by the poller.
  std::uint64_t fetch_failures() const { return fetch_failures_; }
  /// Registers an observer of health transitions (several may register;
  /// e.g. the dispatcher's failover hook). Runs inside the poller.
  void on_health_change(std::function<void(int, BackendHealth)> cb) {
    health_cbs_.push_back(std::move(cb));
  }
  const HealthConfig& health_config() const { return health_cfg_; }

  /// Mean observed refresh latency (monitoring fetch) per back end.
  const sim::OnlineStats& fetch_latency_ns() const { return fetch_lat_; }

  // --- information-age lineage ---------------------------------------------
  /// Recent dispatch decisions, oldest first (bounded; see
  /// set_dispatch_log_capacity). Every pick() appends one record once
  /// start() has bound a clock.
  const sim::RingQueue<DispatchRecord>& dispatch_log() const {
    return dispatch_log_;
  }
  void set_dispatch_log_capacity(std::size_t cap) {
    dispatch_log_cap_ = cap;
    while (dispatch_log_.size() > dispatch_log_cap_) {
      dispatch_log_.pop_front();
    }
  }

  /// Age of back end `i`'s current view (now - its /proc sampling
  /// instant), or a negative duration when no view exists yet. This is
  /// what the "lb.view_age" SLO probe reports the worst case of.
  sim::Duration view_age(std::size_t i) const;

 private:
  struct Health {
    BackendHealth state = BackendHealth::Healthy;
    int fail_streak = 0;
    int success_streak = 0;
  };

  /// Which refresh path produced a back end's current view — the
  /// "scheme" dimension of the lineage histograms ("push"/"gossip", or
  /// the channel's wire scheme name for pull).
  enum class ViewSource : std::uint8_t { Pull = 0, Push = 1, Gossip = 2 };
  static constexpr std::size_t kViewSources = 3;

  /// Lazily-resolved per-{backend, source} lineage instruments.
  struct LineageCell {
    telemetry::HistogramMetric* consume = nullptr;
    telemetry::HistogramMetric* dispatch = nullptr;
  };
  LineageCell& lineage_cell(std::size_t i, ViewSource src);
  const char* source_label(std::size_t i, ViewSource src) const;

  os::Program poller_body(os::SimThread& self, sim::Duration granularity);
  /// Push-strategy pre-pass of one round: scans the inbox slots of
  /// push-mode targets, applies Fresh images, and narrows targets_ in
  /// place to the subset still needing a wire fetch (pull-mode + silence
  /// verifications). Returns the number of slots scanned (CPU cost is
  /// charged by the caller).
  std::size_t push_prepass(sim::TimePoint now);
  /// Dedicated inbox scanner: sweeps every push-mode slot every 5 ms,
  /// far more often than the wire polls run, so pushed changes reach the
  /// view at memory-read latency instead of waiting out the poll
  /// granularity — the push scheme's freshness advantage. Verification
  /// and the failure ladder stay with the per-round pre-pass.
  os::Program scanner_body(os::SimThread& self);
  /// Consumes one Fresh scan result: counters, adaptive evidence,
  /// telemetry, then apply_sample. Shared by pre-pass and scanner.
  void consume_push_fresh(std::size_t i, const monitor::MonitorSample& s,
                          bool heartbeat);
  void record_fetch(std::size_t i, bool ok);
  void apply_sample(std::size_t i, const monitor::MonitorSample& s,
                    bool local = true, ViewSource src = ViewSource::Pull);
  /// Fills targets_ for poll round `round`: every live back end, plus the
  /// Dead ones on the dead-probe cadence.
  void poll_targets(std::uint64_t round);
  /// Keeps alive_ and the weights in step with one back end's health
  /// transition.
  void note_transition(BackendHealth before, BackendHealth after);
  /// Recomputes every back end's smooth-WRR weight and their total from
  /// the cached indices and health states.
  void refresh_weights();

  WeightConfig weights_;
  HealthConfig health_cfg_;
  net::VerbsTuning verbs_;  ///< CQ moderation for the scatter channel
  std::function<bool(std::size_t)> poll_filter_;  ///< shard ownership
  std::vector<std::function<void(const std::vector<std::size_t>&)>>
      round_cbs_;
  std::string telemetry_instance_;  ///< "" = unlabelled instruments
  os::SimThread* poller_thread_ = nullptr;
  std::vector<std::unique_ptr<monitor::MonitorChannel>> channels_;
  std::vector<monitor::MonitorSample> samples_;
  /// load_index of samples_[i] (0 before its first good sample), cached
  /// by apply_sample, the only writer of samples_.
  std::vector<double> index_;
  std::vector<Health> health_;
  int alive_ = 0;  ///< back ends not Dead, kept by note_transition
  std::vector<double> wrr_credit_;  // smooth weighted-RR state
  /// Each back end's smooth-WRR weight and their total, summed in index
  /// order; stale after a new sample or a health transition.
  std::vector<double> weight_;
  double weight_total_ = 0.0;
  bool weights_stale_ = true;
  std::vector<std::function<void(int, BackendHealth)>> health_cbs_;
  std::uint64_t fetch_failures_ = 0;
  sim::OnlineStats fetch_lat_;
  monitor::ScatterFetcher scatter_;  ///< joined at start()
  std::vector<std::size_t> targets_;  ///< the current poll round's targets
  std::vector<monitor::MonitorSample> round_buf_;
  // Push / adaptive strategy state (enable_push).
  monitor::PushInbox* push_inbox_ = nullptr;  ///< not owned
  PushPollConfig push_cfg_;
  std::unique_ptr<monitor::AdaptiveController> adaptive_;
  std::vector<std::function<void(std::size_t, monitor::FetchMode)>> mode_cbs_;
  std::uint64_t push_fresh_ = 0;
  std::uint64_t push_verifications_ = 0;
  // Information-age lineage (tentpole of the freshness plane): per-view
  // provenance, per-{backend, source} age histograms, the dispatch ring,
  // and the SLO streams fed from pick(). The SloEngine (when one is
  // installed on the registry) must outlive this balancer — probes are
  // removed in the destructor.
  sim::Simulation* simu_ = nullptr;  ///< bound at start(); clock for pick()
  std::vector<ViewSource> view_src_;  ///< provenance of samples_[i]
  std::vector<std::array<LineageCell, kViewSources>> lineage_;
  sim::RingQueue<DispatchRecord> dispatch_log_;
  std::size_t dispatch_log_cap_ = 256;
  telemetry::SloEngine* slo_ = nullptr;
  telemetry::SloEngine::Stream* s_view_age_ = nullptr;
  std::vector<std::uint64_t> slo_probes_;
  telemetry::FlightRing* fr_ = nullptr;  ///< "lb" ring: health + mode edges
  // Telemetry instruments, resolved in start() (null when disabled / no
  // registry installed on the front end's simulation).
  telemetry::Registry* reg_ = nullptr;
  std::vector<telemetry::Counter*> m_pick_;  ///< per-backend dispatch counts
  telemetry::HistogramMetric* m_pick_weight_ = nullptr;
  telemetry::Counter* m_to_healthy_ = nullptr;
  telemetry::Counter* m_to_suspect_ = nullptr;
  telemetry::Counter* m_to_dead_ = nullptr;
  telemetry::Counter* m_push_fresh_ = nullptr;
  telemetry::Counter* m_push_verify_ = nullptr;
  telemetry::HistogramMetric* m_push_staleness_ = nullptr;
  telemetry::ScopedCollector collector_;  ///< alive count + failure total
};

}  // namespace rdmamon::lb
