#include "spans.hpp"

#include <cstdio>

namespace perfbench {

namespace {
constexpr const char* kKindNames[SpanLog::kKinds] = {
    "construct", "warmup", "run_for", "LoadBalancer::pick",
    "RequestGenerator"};
}

SpanLog::SpanLog(std::size_t capacity) { spans_.reserve(capacity); }

std::vector<double> SpanLog::durations(Kind k) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.kind == k) out.push_back(static_cast<double>(s.dur_ns));
  }
  return out;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}",
                 i == 0 ? "" : ",", kKindNames[s.kind],
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.dur_ns) / 1e3);
  }
  std::fprintf(f, "\n],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
