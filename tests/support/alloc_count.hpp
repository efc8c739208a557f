// Counting replacement of the global allocation functions, shared by the
// binaries that gate heap allocations (the *_alloc tests, the event-queue
// stress and telemetry tests, bench_engine). Linking the
// rdmamon_alloc_count object library replaces every throwing, nothrow
// and aligned form of operator new / new[] with a counting one, and every
// operator delete / delete[] form with its matching release, all in one
// translation unit of their own. Single-threaded: the counter is a plain
// integer.
#pragma once

#include <cstdint>

namespace rdmamon::support {

/// Calls of any replaceable allocation function so far in this process
/// (gtest and static initialisers included, so callers bracket exactly
/// the code under test).
std::uint64_t allocations();

}  // namespace rdmamon::support
