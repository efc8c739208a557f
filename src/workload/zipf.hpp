// Zipf-popularity static-content trace (the paper's second co-hosted web
// service, Section 5.2.1). Popularity follows Zipf(alpha); document sizes
// are heavy-tailed; the most popular documents fit the in-memory cache.
// Low alpha spreads requests across uncached documents, making per-request
// cost divergent — exactly the regime where fine-grained monitoring pays.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rdmamon::workload {

/// Server-side cache: documents are cached in popularity order until this
/// budget is exhausted. The default corpus (~250 MB) is several times the
/// cache so the hit ratio actually depends on alpha.
constexpr std::uint64_t kZipfCacheBytes = 64ull << 20;
/// Bounded-Pareto document sizes.
constexpr double kDocSizeShape = 1.2;
constexpr double kDocMinBytes = 2'048;
constexpr double kDocMaxBytes = 2'097'152;  // 2 MiB
/// Request parse + header cost.
constexpr sim::Duration kStaticBaseCpu = sim::usec(200);
/// Serving from memory: per-byte copy cost.
constexpr double kMemNsPerByte = 0.05;
/// Serving from disk: seek + transfer (I/O wait, does not burn CPU).
constexpr sim::Duration kDiskBase = sim::msec(5);
constexpr double kDiskNsPerByte = 25.0;  // ~40 MB/s 2006-era disk

struct ZipfTraceConfig {
  std::size_t documents = 20'000;
  double alpha = 0.5;
};

/// One sampled static request with its resolved service demands.
struct StaticRequest {
  std::size_t doc_rank = 0;  ///< 1-based popularity rank
  std::size_t bytes = 0;
  bool cached = false;
  sim::Duration cpu_demand{};  ///< CPU burst at the server
  sim::Duration io_wait{};     ///< disk wait (no CPU)
};

class ZipfTrace {
 public:
  /// Builds the document set deterministically from `seed`.
  ZipfTrace(ZipfTraceConfig cfg, std::uint64_t seed);

  /// Samples one request.
  StaticRequest sample(sim::Rng& rng) const;

  /// Fraction of *requests* (probability mass) served from cache.
  double cached_request_fraction() const;

  std::size_t documents() const { return sizes_.size(); }
  double alpha() const { return cfg_.alpha; }
  const ZipfTraceConfig& config() const { return cfg_; }

 private:
  ZipfTraceConfig cfg_;
  sim::ZipfDistribution zipf_;
  std::vector<std::uint32_t> sizes_;  // by popularity rank (1-based -> idx 0)
  std::vector<bool> cached_;
};

}  // namespace rdmamon::workload
