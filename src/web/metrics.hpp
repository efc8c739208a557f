// Response-time and throughput accounting for the application-level
// experiments (Table 1, Figs 7-9).
#pragma once

#include <map>
#include <string>

#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "telemetry/registry.hpp"

namespace rdmamon::web {

/// Collects per-class and overall response times plus completion counts.
class ResponseStats {
 public:
  void record(int query_class, sim::Duration response_time) {
    const double ns = static_cast<double>(response_time.ns);
    per_class_[query_class].add(ns);
    overall_.add(ns);
    per_class_hist_[query_class].add(ns);
    overall_hist_.add(ns);
    ++completed_;
  }

  void record_rejected() { ++rejected_; }

  /// Per-class stats; creates an empty slot if absent.
  const sim::OnlineStats& by_class(int query_class) const {
    static const sim::OnlineStats empty;
    auto it = per_class_.find(query_class);
    return it == per_class_.end() ? empty : it->second;
  }

  const sim::OnlineStats& overall() const { return overall_; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t rejected() const { return rejected_; }

  /// Re-exports the percentiles gathered so far into the registry as
  /// gauges (web.response.*), labelled by `base` + {class=...}. Typically
  /// run from a snapshot-time collector.
  void export_to(telemetry::Registry& reg,
                 const telemetry::Labels& base = {}) const {
    auto put = [&reg, &base](const std::string& cls,
                             const sim::Histogram& h) {
      telemetry::Labels l = base;
      l.add("class", cls);
      reg.gauge("web.response.count", l)
          .set(static_cast<double>(h.count()));
      reg.gauge("web.response.mean_ns", l).set(h.mean());
      reg.gauge("web.response.p50_ns", l).set(h.percentile(0.50));
      reg.gauge("web.response.p90_ns", l).set(h.percentile(0.90));
      reg.gauge("web.response.p99_ns", l).set(h.percentile(0.99));
    };
    put("all", overall_hist_);
    for (const auto& [cls, h] : per_class_hist_) put(std::to_string(cls), h);
    reg.gauge("web.response.rejected", base)
        .set(static_cast<double>(rejected_));
  }

  /// Completions per second over the given simulated span.
  double throughput(sim::Duration span) const {
    return span.ns > 0
               ? static_cast<double>(completed_) / span.seconds()
               : 0.0;
  }

  /// Discards everything gathered so far (used to drop warm-up samples).
  void reset() {
    per_class_.clear();
    overall_ = {};
    per_class_hist_.clear();
    overall_hist_.reset();
    completed_ = 0;
    rejected_ = 0;
  }

 private:
  std::map<int, sim::OnlineStats> per_class_;
  sim::OnlineStats overall_;
  std::map<int, sim::Histogram> per_class_hist_;
  sim::Histogram overall_hist_;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace rdmamon::web
