// The bench binaries' shared command line: `--quick` and `--seed N` are
// accepted, anything else (a mistyped flag, a missing or non-numeric
// seed) exits 2 with a usage line instead of silently running the
// default experiment.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "args.hpp"

namespace rdmamon::bench {
namespace {

// Owns mutable copies of the arguments, as main() receives them.
struct Argv {
  std::vector<std::string> store;
  std::vector<char*> ptrs;

  explicit Argv(std::vector<std::string> args) : store(std::move(args)) {
    store.insert(store.begin(), "bench");
    for (std::string& a : store) ptrs.push_back(a.data());
    ptrs.push_back(nullptr);
  }
  int argc() const { return static_cast<int>(store.size()); }
  char** argv() { return ptrs.data(); }
};

Options parse(std::vector<std::string> args) {
  Argv a(std::move(args));
  return parse_args(a.argc(), a.argv());
}

TEST(BenchArgs, DefaultsAndUniformFlags) {
  const Options d = parse({});
  EXPECT_FALSE(d.quick);
  EXPECT_EQ(d.seed, 42u);
  const Options o = parse({"--seed", "7", "--quick"});
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.seed, 7u);
}

TEST(BenchArgs, RejectsUnknownFlag) {
  EXPECT_EXIT(parse({"--quick", "--sed", "7"}),
              ::testing::ExitedWithCode(2), "unknown argument '--sed'");
}

TEST(BenchArgs, RejectsMissingSeed) {
  EXPECT_EXIT(parse({"--seed"}), ::testing::ExitedWithCode(2),
              "--seed needs a value");
}

TEST(BenchArgs, RejectsNonNumericSeed) {
  for (const char* bad : {"abc", "7x", "-1", "", "99999999999999999999"}) {
    EXPECT_EXIT(parse({"--seed", bad}), ::testing::ExitedWithCode(2),
                "invalid --seed value")
        << bad;
  }
}

TEST(BenchArgs, TakeArgsLeavesOtherFlagsInOrder) {
  Argv a({"--benchmark_filter=Zipf", "--quick", "--seed", "9", "-v"});
  int argc = a.argc();
  const Options o = take_args(argc, a.argv());
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.seed, 9u);
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(a.argv()[1], "--benchmark_filter=Zipf");
  EXPECT_STREQ(a.argv()[2], "-v");
  EXPECT_EQ(a.argv()[3], nullptr);
}

}  // namespace
}  // namespace rdmamon::bench
