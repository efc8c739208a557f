// Span tracing for the monitoring plane itself: begin/end pairs on the
// simulated clock with cause-linking (a retry attempt points at the fetch
// that spawned it; a scatter slot points at its round).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace rdmamon::telemetry {

/// Opaque span handle. id 0 = "no span" (telemetry off / dropped).
struct SpanId {
  std::uint64_t id = 0;
  explicit operator bool() const { return id != 0; }
};

/// One finished (or still-open) span.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t cause = 0;  ///< parent/causing span id; 0 = root
  std::string component;    ///< "monitor", "scatter", "fault", ...
  std::string name;         ///< "fetch", "round", "attempt", ...
  sim::TimePoint begin{};
  sim::TimePoint end{};
  std::string outcome;      ///< "" while open; "ok"/"timeout"/... when done
  std::vector<std::string> notes;

  sim::Duration duration() const { return end - begin; }
};

/// Records spans into a bounded ring of finished spans (oldest dropped
/// first, so long runs stay bounded); open spans live in a side table
/// until end() is called.
class SpanTracer {
 public:
  /// Clock source (bound by Registry::install).
  void bind_clock(std::function<sim::TimePoint()> now) {
    now_ = std::move(now);
  }

  /// Finished spans kept (default 4096); older ones are dropped.
  void set_capacity(std::size_t cap);

  SpanId begin(std::string_view component, std::string_view name,
               SpanId cause = {});
  /// Attaches a free-form note to an open span. No-op for unknown ids.
  void note(SpanId id, std::string text);
  /// Closes a span with `outcome`; moves it to the finished ring. No-op
  /// for unknown ids (e.g. a span evicted by capacity pressure).
  void end(SpanId id, std::string_view outcome = "ok");

  /// begin+note+end at one instant (point events: faults, transitions).
  SpanId event(std::string_view component, std::string_view name,
               std::string note_text, SpanId cause = {});

  const std::deque<Span>& finished() const { return finished_; }
  std::size_t open_count() const { return open_.size(); }
  std::uint64_t started() const { return started_; }
  std::uint64_t dropped() const { return dropped_; }

  /// Finished span with this id, or nullptr (test convenience).
  const Span* find_finished(SpanId id) const;

  void clear();

 private:
  sim::TimePoint now() const { return now_ ? now_() : sim::TimePoint{}; }

  std::function<sim::TimePoint()> now_;
  std::size_t capacity_ = 4096;
  std::uint64_t next_id_ = 1;
  std::uint64_t started_ = 0;
  std::uint64_t dropped_ = 0;
  std::unordered_map<std::uint64_t, Span> open_;
  std::deque<Span> finished_;
};

}  // namespace rdmamon::telemetry
