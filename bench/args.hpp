// Minimal CLI handling shared by all bench binaries: `--quick` shrinks
// sweeps for smoke runs; `--seed N` changes the experiment seed. Anything
// else is a usage error (exit 2), so a mistyped flag cannot silently run
// the default experiment.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

namespace rdmamon::bench {

struct Options {
  bool quick = false;
  std::uint64_t seed = 42;
};

[[noreturn]] inline void usage_error(const char* prog,
                                     const std::string& why) {
  std::cerr << prog << ": " << why << "\nusage: " << prog
            << " [--quick] [--seed N]\n";
  std::exit(2);
}

/// Removes `--quick` and `--seed N` from argv (compacting it and updating
/// argc) and returns them. Other arguments stay, in order, for a second
/// parser such as google-benchmark's. A `--seed` without a decimal
/// unsigned value is a usage error.
inline Options take_args(int& argc, char** argv) {
  Options o;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      o.quick = true;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) usage_error(argv[0], "--seed needs a value");
      const char* v = argv[++i];
      char* end = nullptr;
      errno = 0;
      const unsigned long long n = std::strtoull(v, &end, 10);
      if (v[0] < '0' || v[0] > '9' || *end != '\0' || errno == ERANGE) {
        usage_error(argv[0], std::string("invalid --seed value '") + v + "'");
      }
      o.seed = n;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  argv[argc] = nullptr;
  return o;
}

/// Parses the uniform flags; any other argument is a usage error.
inline Options parse_args(int argc, char** argv) {
  const Options o = take_args(argc, argv);
  if (argc > 1) {
    usage_error(argv[0], std::string("unknown argument '") + argv[1] + "'");
  }
  return o;
}

}  // namespace rdmamon::bench
