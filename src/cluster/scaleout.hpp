// Multi-front-end scale-out plane: M LoadBalancer front-ends share one
// back-end set. Polling responsibility is partitioned by the consistent
// hash ring (cluster/ring) through reconfig::FrontendMembership, so each
// back end is polled by exactly ONE owner; every front end still sees
// all N back ends because each owner publishes its shard's load view
// into a registered MR that peers RDMA-READ one-sided — the same
// publish pattern as monitor::TelemetrySelfMonitor, with a ShardView as
// the "load information". The gossip READs cost the publisher no CPU,
// so the view stays readable even off a saturated or frozen owner.
//
// Failure handling composes three existing mechanisms:
//  - a peer whose view READs error-complete (crashed host) or whose
//    published_at stops advancing (a stalled publisher whose NIC still
//    DMA-serves the last content) accrues a fail streak and is evicted
//    from the ring via membership.leave — every survivor's ownership
//    filter is recomputed before its next poll round. Note the fault
//    model: inject_freeze parks inbound SOCKET packets only, while
//    one-sided ops bypass the host CPU at both ends — a frozen front
//    end keeps monitoring unimpaired under the RDMA schemes (the
//    paper's core claim), so "the owner died" means inject_crash;
//  - a peer-view entry older than the staleness bound counts a strike
//    against that BACK END through LoadBalancer::note_stale, feeding
//    the existing HealthConfig Suspect/Dead thresholds;
//  - a front end that takes over a shard resets the detector of its new
//    back ends (LoadBalancer::reset_health) so dead-probe throttling
//    cannot delay the takeover polls.
//
// Self-isolation guard: a front end only evicts peers while its OWN
// shard polls are succeeding (or it owns nothing) — if everything looks
// dead, the sane conclusion is that WE are the partitioned one, so we
// hold our tongue until connectivity proves otherwise. A front end that
// finds itself evicted rejoins on its first successful peer read.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lb/balancer.hpp"
#include "monitor/monitor.hpp"
#include "net/fabric.hpp"
#include "net/verbs.hpp"
#include "os/node.hpp"
#include "reconfig/membership.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/slo.hpp"

namespace rdmamon::cluster {

/// One back end's entry in a front end's published shard view.
struct ViewEntry {
  monitor::MonitorSample sample;  ///< owner's last good sample
  lb::BackendHealth health = lb::BackendHealth::Healthy;
  sim::TimePoint sampled_at{};  ///< when the owner last polled it
  bool valid = false;           ///< covered by the publisher's shard
};

/// What one front end publishes through its registered view MR. Peers
/// sample it at the DMA instant (MemoryRegion reader callback), so a
/// publisher whose poller has stalled keeps serving its last content —
/// published_at stops advancing, which is what peers key on.
struct ShardView {
  int frontend = -1;
  std::uint64_t round = 0;  ///< poll rounds folded into this view
  std::uint64_t membership_epoch = 0;
  sim::TimePoint published_at{};
  std::vector<ViewEntry> entries;  ///< size N; valid marks owned ones
};

/// Consecutive failed/stale view reads before a peer is evicted.
/// (kPeerDeadAfter - 1) * gossip_period is also the freshness an
/// evictor's own-shard evidence must show (FrontendPlane::may_evict);
/// keep the balancer's poll round shorter than that window or no front
/// end can ever evict.
constexpr int kPeerDeadAfter = 3;
/// Wire size of the view region (charged per gossip READ).
constexpr std::size_t kViewBytes = 4096;

/// Monitoring in the plane is pull-only: each front end polls its shard
/// through the balancer's scatter rounds.
struct ScaleOutConfig {
  /// Gossip period: each front end READs every peer's view this often.
  sim::Duration gossip_period = sim::msec(25);
  /// Deadline of one peer-view READ.
  sim::Duration read_timeout = sim::msec(10);
  /// A non-owned back end unseen for longer than this takes a staleness
  /// strike per bound elapsed; a peer whose published view is older than
  /// this counts as failed even when the READ itself succeeds.
  sim::Duration staleness_bound = sim::msec(200);

  /// Verbs-layer tuning applied to every front end's monitoring channels
  /// and scatter CQ: signal-every-k, inflight windows, DCT-style shared
  /// contexts, CQ notification moderation (net::VerbsTuning). Defaults
  /// reproduce the historical one-context-per-channel, signal-everything
  /// behaviour byte-for-byte.
  net::VerbsTuning verbs;
};

class ScaleOutPlane;

/// One front end's half of the plane: its balancer (poll-filtered to
/// its shard), its published view, and its gossip loop.
class FrontendPlane {
 public:
  FrontendPlane(ScaleOutPlane& plane, os::Node& node, int id,
                lb::WeightConfig weights);

  FrontendPlane(const FrontendPlane&) = delete;
  FrontendPlane& operator=(const FrontendPlane&) = delete;

  lb::LoadBalancer& balancer() { return lb_; }
  os::Node& node() { return *node_; }
  int id() const { return id_; }

  /// The view peers READ (also the MR's logical content right now).
  const ShardView& view() const { return view_; }
  net::MrKey view_mr_key() const { return view_mr_; }

  /// Graceful departure (drain, maintenance): leaves the ring AND stops
  /// the gossip loop from auto-rejoining. Peers take the shard over at
  /// their next poll round. Distinct from being evicted: an evicted
  /// front end still wants membership and rejoins on its first
  /// successful peer read.
  void leave(const std::string& reason = "drain");
  /// Re-enters after a graceful leave().
  void rejoin(const std::string& reason = "rejoin");

  /// Kills this front end's poller and gossip threads in place: the
  /// host stays attached and its NIC keeps DMA-serving the view MR, but
  /// published_at stops advancing. Models a hung monitoring process
  /// (SIGSTOP, livelock) — which inject_freeze cannot express, since a
  /// frozen node's threads keep being scheduled — and is the trigger
  /// for the peers' stale-view eviction path.
  void stall();

  /// Back ends this front end currently owns on the ring.
  int owned_count() const;
  /// Oldest "last seen" of any back end owned by OTHER members (how far
  /// behind this front end's picture of foreign shards is). Zero when
  /// every back end is ours.
  sim::Duration max_peer_view_age() const;

  // --- counters (for tests and the scale bench) ---------------------------
  const std::vector<std::uint64_t>& poll_counts() const { return polls_; }
  std::uint64_t gossip_reads_ok() const { return gossip_ok_; }
  std::uint64_t gossip_reads_failed() const { return gossip_fail_; }
  std::uint64_t stale_marks() const { return stale_marks_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t takeovers() const { return takeovers_; }
  std::uint64_t rejoins() const { return rejoins_; }

 private:
  friend class ScaleOutPlane;

  /// Called by ScaleOutPlane::start: channels, filter, view MR, gossip.
  void wire(sim::Duration granularity);
  void on_round(const std::vector<std::size_t>& targets);
  void on_membership_change();
  os::Program gossip_body(os::SimThread& self);
  void process_view(const ShardView& v);
  bool may_evict() const;

  ScaleOutPlane* plane_;
  os::Node* node_;
  int id_;
  lb::LoadBalancer lb_;
  bool wants_membership_ = true;  ///< false after a graceful leave()

  ShardView view_;
  net::MrKey view_mr_{};
  sim::TimePoint last_round_end_{};  ///< previous poll round's finish
  sim::TimePoint last_local_ok_{};   ///< last successful OWN-shard fetch

  os::SimThread* gossip_thread_ = nullptr;
  net::CompletionQueue gossip_cq_;
  std::vector<std::unique_ptr<net::QueuePair>> peer_qps_;  ///< by peer id
  std::vector<int> peer_fail_;            ///< consecutive bad view reads
  std::vector<int> owned_by_;             ///< last seen owner per back end
  std::vector<sim::TimePoint> last_seen_;  ///< per back end, any source
  std::vector<sim::TimePoint> last_strike_;

  std::vector<std::uint64_t> polls_;
  std::uint64_t gossip_ok_ = 0;
  std::uint64_t gossip_fail_ = 0;
  std::uint64_t stale_marks_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t takeovers_ = 0;
  std::uint64_t rejoins_ = 0;

  telemetry::Counter* m_gossip_ok_ = nullptr;
  telemetry::Counter* m_gossip_fail_ = nullptr;
  telemetry::Counter* m_stale_ = nullptr;
  telemetry::Counter* m_evict_ = nullptr;
  telemetry::ScopedCollector collector_;
  /// Freshness SLO stream for gossiped peer views (fed when the operator
  /// declared "cluster.peer_view_age"), and the membership flight ring.
  telemetry::SloEngine* slo_ = nullptr;
  telemetry::SloEngine::Stream* s_peer_age_ = nullptr;
  telemetry::FlightRing* fr_ = nullptr;
};

/// The whole plane: shared back-end monitors, the membership ring, and
/// one FrontendPlane per front end. Wiring order: add_backend /
/// add_frontend freely, configure each FrontendPlane's balancer, then
/// start() once.
class ScaleOutPlane {
 public:
  ScaleOutPlane(net::Fabric& fabric, ScaleOutConfig cfg,
                monitor::MonitorConfig mcfg);
  ~ScaleOutPlane();

  ScaleOutPlane(const ScaleOutPlane&) = delete;
  ScaleOutPlane& operator=(const ScaleOutPlane&) = delete;

  /// Registers a back end: creates its ONE shared BackendMonitor (one
  /// daemon set / one registered MR total, however many front ends
  /// attach). Returns the back-end index.
  int add_backend(os::Node& node);

  /// Registers a front end; its id is the creation index.
  FrontendPlane& add_frontend(os::Node& node, lb::WeightConfig weights);

  /// Bootstraps membership (all front ends join), wires every front
  /// end's channels against the shared back-end monitors, and starts
  /// the balancer pollers and gossip loops.
  void start(sim::Duration granularity);

  int backend_count() const {
    return static_cast<int>(backend_monitors_.size());
  }
  int frontend_count() const { return static_cast<int>(frontends_.size()); }
  FrontendPlane& frontend(int i) {
    return *frontends_[static_cast<std::size_t>(i)];
  }
  monitor::BackendMonitor& backend_monitor(int i) {
    return *backend_monitors_[static_cast<std::size_t>(i)];
  }
  reconfig::FrontendMembership& membership() { return membership_; }
  int owner_of(int backend) const { return membership_.owner_of(backend); }

  net::Fabric& fabric() { return *fabric_; }
  const ScaleOutConfig& config() const { return cfg_; }
  const monitor::MonitorConfig& monitor_config() const { return mcfg_; }

 private:
  net::Fabric* fabric_;
  ScaleOutConfig cfg_;
  monitor::MonitorConfig mcfg_;
  reconfig::FrontendMembership membership_;
  std::vector<std::unique_ptr<monitor::BackendMonitor>> backend_monitors_;
  std::vector<std::unique_ptr<FrontendPlane>> frontends_;
  bool started_ = false;
};

}  // namespace rdmamon::cluster
