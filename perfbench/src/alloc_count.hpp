// Process-wide allocation counter: this package replaces the global
// operator new/delete, so every C++ heap allocation the simulator makes
// is counted. The benchmark is single-threaded; the counters are plain.
#pragma once

#include <cstdint>

namespace perfbench {

struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Allocations (calls to operator new) since process start.
AllocCount alloc_now();

inline AllocCount operator-(AllocCount a, AllocCount b) {
  return {a.count - b.count, a.bytes - b.bytes};
}

}  // namespace perfbench
