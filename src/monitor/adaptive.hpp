// Per-backend push-vs-pull mode selection (the tentpole's hybrid). The
// controller compares two fabric costs per backend and per decision epoch:
//
//  - the push scheme's projected cost  push_Bps = kPushBytes · (χ +
//    1/heartbeat), from the observed change rate χ (significant load
//    movements per second: non-heartbeat pushes consumed while in push
//    mode, threshold-crossing samples while in pull mode);
//  - the pull scheme's fixed cost  pull_Bps = kPullBytes / poll period.
//
// It switches a backend only when the other mode is cheaper by the
// kHysteresis factor for kDwellEpochs consecutive epochs AND kMinDwell
// has elapsed since that backend's last switch — so the switch rate is
// bounded by 1/kMinDwell per backend by construction (the flap-freedom
// the property suite asserts). Everything runs on the simulated clock
// from simulated events: decisions are deterministic and never read the
// telemetry plane (which may not be installed).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "os/procfs.hpp"
#include "sim/time.hpp"

namespace rdmamon::monitor {

/// How a balancer refreshes one backend's sample.
enum class FetchMode { Pull, Push };

/// Scheme selection for a push-capable balancer.
enum class MonitorStrategy {
  Pull,      ///< classic polling only (the paper's schemes)
  Push,      ///< inbox scanning only, READ verification on silence
  Adaptive,  ///< per-backend controller picks Pull or Push
};

const char* to_string(FetchMode m);
const char* to_string(MonitorStrategy s);

/// Decision epoch: rates are measured and compared once per epoch.
constexpr sim::Duration kAdaptiveEpoch = sim::msec(100);
/// The candidate mode must be cheaper by this factor to be preferred.
constexpr double kHysteresis = 1.3;
/// Consecutive epochs the candidate must stay preferred.
constexpr int kDwellEpochs = 2;
/// Floor between switches of one backend (the hard flap bound).
constexpr sim::Duration kMinDwell = sim::msec(500);
/// Wire bytes of one pull fetch (request + reply) and one push WRITE
/// (request+payload + ack) — the cost model's per-op constants.
constexpr std::size_t kPullBytes = 32 + 256;
constexpr std::size_t kPushBytes = 32 + 256 + 32;
/// Mode every backend starts in.
constexpr FetchMode kAdaptiveInitialMode = FetchMode::Pull;

struct AdaptiveConfig {
  /// change_delta() threshold counted as "the load moved" in pull mode —
  /// keep equal to PushConfig::change_threshold so both modes estimate
  /// the same χ.
  double change_threshold = 0.05;
  /// The balancer's poll granularity (pull cost denominator).
  sim::Duration pull_period = sim::msec(50);
  /// The publisher's heartbeat ceiling (push cost floor).
  sim::Duration push_heartbeat = sim::msec(100);
};

class AdaptiveController {
 public:
  AdaptiveController(AdaptiveConfig cfg, int backends);

  FetchMode mode(std::size_t i) const { return st_[i].mode; }
  const AdaptiveConfig& config() const { return cfg_; }

  /// Observer of committed mode switches (runs inside tick()). The
  /// balancer forwards these so publishers can be paused/resumed.
  void on_switch(std::function<void(std::size_t, FetchMode)> cb) {
    switch_cbs_.push_back(std::move(cb));
  }

  // --- event feed (called by the balancer's poller) -------------------------
  /// A pull fetch of backend `i` succeeded with `info`.
  void on_pull_sample(std::size_t i, const os::LoadSnapshot& info);
  /// A Fresh inbox image of backend `i` was consumed.
  void on_push_fresh(std::size_t i, bool heartbeat);

  /// Epoch driver: call once per poll round with the simulated now.
  /// Processes a decision epoch when one has elapsed.
  void tick(sim::TimePoint now);

  // --- introspection --------------------------------------------------------
  std::uint64_t switches(std::size_t i) const { return st_[i].switches; }
  std::uint64_t total_switches() const;
  /// Last epoch's projected pull cost (bytes/sec).
  double est_pull_bps() const;

 private:
  struct State {
    FetchMode mode = kAdaptiveInitialMode;
    // Current-epoch accumulators.
    std::uint64_t pull_changes = 0;
    std::uint64_t push_fresh = 0;       ///< non-heartbeat
    bool has_prev = false;
    os::LoadSnapshot prev;              ///< last pulled snapshot (χ in pull mode)
    // Decision state.
    FetchMode candidate = kAdaptiveInitialMode;
    int candidate_epochs = 0;
    sim::TimePoint last_switch{};
    std::uint64_t switches = 0;
  };

  void decide(std::size_t i, sim::TimePoint now, double epoch_sec);

  AdaptiveConfig cfg_;
  std::vector<State> st_;
  std::vector<std::function<void(std::size_t, FetchMode)>> switch_cbs_;
  bool epoch_armed_ = false;
  sim::TimePoint epoch_start_{};
};

}  // namespace rdmamon::monitor
