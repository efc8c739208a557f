// Snapshot export: Prometheus-style text exposition, a JSON document
// (via util::JsonValue) and a text dashboard. Pure functions of a
// Snapshot (and the flight recorder), so exports are as deterministic as
// the run that produced them.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/registry.hpp"
#include "util/json.hpp"

namespace rdmamon::telemetry {

/// Prometheus text exposition format:
///   rdmamon_monitor_fetch_total{scheme="RDMA-Sync",backend="b0"} 42
/// Metric names are the registry names with '.' -> '_' and an "rdmamon_"
/// prefix; histograms emit _count/_sum-less summary gauges (p50/p90/p99),
/// which is what our scrapeless file-dump consumers actually read.
std::string to_prometheus(const Snapshot& snap);

/// JSON document: {"at_ns": ..., "metrics": [{name, labels, kind, ...}]}.
util::JsonValue to_json(const Snapshot& snap);

/// Writes `text` to `path`, returning false (and leaving a partial file
/// possibly behind) on I/O failure.
bool write_file(const std::string& path, const std::string& text);

/// Human-oriented dashboard: metrics grouped by name with aligned values,
/// plus the last `max_events` of the recorder's merged timeline — what
/// the examples print.
void print_dashboard(std::ostream& os, const Snapshot& snap,
                     const FlightRecorder* recorder = nullptr,
                     std::size_t max_events = 12);

}  // namespace rdmamon::telemetry
