// In-memory host-time spans around the calls the benchmark makes into the
// simulator's layers. Recorded only in traced repetitions, into a buffer
// reserved up front; written as Chrome trace-event JSON at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host monotonic clock in nanoseconds.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanLog {
 public:
  /// Layer call a span covers. Pick and Gen nest inside a Slice.
  enum Kind : std::uint8_t { Construct, Warmup, Slice, Pick, Gen, kKinds };

  explicit SpanLog(std::size_t capacity);

  void add(Kind k, std::int64_t start_ns, std::int64_t end_ns) {
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({start_ns, end_ns - start_ns, k});
    } else {
      ++dropped_;
    }
  }

  /// Durations (ns) of the recorded spans of one kind.
  std::vector<double> durations(Kind k) const;
  std::uint64_t dropped() const { return dropped_; }

  /// Writes the spans as a Chrome trace-event file (opens in Perfetto).
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::int64_t start_ns;
    std::int64_t dur_ns;
    Kind kind;
  };
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

}  // namespace perfbench
