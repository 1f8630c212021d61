#include "util/args.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace odtn::util {
namespace {

Args make_args(std::vector<std::string> argv) {
  static std::vector<std::vector<char>> storage;
  storage.clear();
  std::vector<char*> ptrs;
  for (auto& s : argv) {
    storage.emplace_back(s.begin(), s.end());
    storage.back().push_back('\0');
    ptrs.push_back(storage.back().data());
  }
  return Args(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(Args, EqualsForm) {
  Args a = make_args({"prog", "--runs=500", "--seed=7"});
  EXPECT_EQ(a.get_unsigned("runs", 100), 500u);
  EXPECT_EQ(a.get_unsigned("seed", 1), 7u);
}

TEST(Args, SpaceForm) {
  Args a = make_args({"prog", "--runs", "250"});
  EXPECT_EQ(a.get_unsigned("runs", 100), 250u);
}

TEST(Args, BareFlagIsTrue) {
  Args a = make_args({"prog", "--verbose"});
  EXPECT_TRUE(a.get_bool("verbose", false));
  EXPECT_FALSE(a.get_bool("quiet", false));
}

TEST(Args, DefaultsWhenAbsent) {
  Args a = make_args({"prog"});
  EXPECT_EQ(a.get("name", "dflt"), "dflt");
  EXPECT_EQ(a.get_unsigned("n", 42), 42u);
  EXPECT_DOUBLE_EQ(a.get_double("x", 2.5), 2.5);
}

TEST(Args, DoubleParsing) {
  Args a = make_args({"prog", "--rate=0.125"});
  EXPECT_DOUBLE_EQ(a.get_double("rate", 0), 0.125);
}

TEST(Args, Positional) {
  Args a = make_args({"prog", "input.txt", "--k=3", "output.txt"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.txt");
  EXPECT_EQ(a.positional()[1], "output.txt");
  EXPECT_EQ(a.get_unsigned("k", 0), 3u);
}

TEST(Args, BoolSpellings) {
  Args a = make_args({"prog", "--a=true", "--b=1", "--c=yes", "--d=false",
                      "--e=0", "--f=on", "--g=no", "--h=off"});
  EXPECT_TRUE(a.get_bool("a", false));
  EXPECT_TRUE(a.get_bool("b", false));
  EXPECT_TRUE(a.get_bool("c", false));
  EXPECT_FALSE(a.get_bool("d", true));
  EXPECT_FALSE(a.get_bool("e", true));
  EXPECT_TRUE(a.get_bool("f", false));
  EXPECT_FALSE(a.get_bool("g", true));
  EXPECT_FALSE(a.get_bool("h", true));
  // Any other value is a usage error, never a silent false.
  EXPECT_EXIT(make_args({"prog", "--resume=maybe"}).get_bool("resume", false),
              ::testing::ExitedWithCode(2), "--resume=maybe is not a boolean");
  EXPECT_EXIT(make_args({"prog", "--wire-cells=yes1"})
                  .get_bool("wire-cells", false),
              ::testing::ExitedWithCode(2), "--wire-cells=yes1");
  EXPECT_EXIT(make_args({"prog", "--x="}).get_bool("x", true),
              ::testing::ExitedWithCode(2), "--x= is not a boolean");
}

TEST(Args, HasAndProgram) {
  Args a = make_args({"my_bench", "--x=1"});
  EXPECT_TRUE(a.has("x"));
  EXPECT_FALSE(a.has("y"));
  EXPECT_EQ(a.program(), "my_bench");
}

TEST(Args, NumericFlagsRejectGarbage) {
  EXPECT_EXIT(make_args({"prog", "--n=abc"}).get_unsigned("n", 0),
              ::testing::ExitedWithCode(2),
              "--n=abc is not a non-negative integer");
  EXPECT_EXIT(make_args({"prog", "--threads=xyz"}).get_unsigned("threads", 0),
              ::testing::ExitedWithCode(2), "--threads=xyz");
  EXPECT_EXIT(make_args({"prog", "--runs=12x"}).get_unsigned("runs", 0),
              ::testing::ExitedWithCode(2), "--runs=12x");
  EXPECT_EXIT(make_args({"prog", "--runs="}).get_unsigned("runs", 0),
              ::testing::ExitedWithCode(2), "--runs=");
  EXPECT_EXIT(make_args({"prog", "--k= 3"}).get_unsigned("k", 0),
              ::testing::ExitedWithCode(2), "--k= 3");
  EXPECT_EXIT(make_args({"prog", "--x=abc"}).get_double("x", 0),
              ::testing::ExitedWithCode(2), "--x=abc is not a number");
  EXPECT_EXIT(make_args({"prog", "--rate=0.5s"}).get_double("rate", 0),
              ::testing::ExitedWithCode(2), "--rate=0.5s");
  EXPECT_EXIT(make_args({"prog", "--rate"}).get_double("rate", 0),
              ::testing::ExitedWithCode(2), "--rate=true");
  EXPECT_EXIT(make_args({"prog", "--rate="}).get_double("rate", 0),
              ::testing::ExitedWithCode(2), "--rate= is not a number");
  EXPECT_EXIT(make_args({"prog", "--p=0.4junk"}).get_double("p", 0),
              ::testing::ExitedWithCode(2), "--p=0.4junk");
}

TEST(Args, UnknownFlagsRejected) {
  Args a = make_args({"prog", "--runs=5", "--seed", "7", "input.txt"});
  a.reject_unknown({"runs", "seed", "threads"});  // all known: no exit
  EXPECT_EQ(a.get_unsigned("runs", 0), 5u);
  // The one stderr line names the flag and lists the accepted ones.
  EXPECT_EXIT(make_args({"prog", "--runs=5", "--no-such-flag=1"})
                  .reject_unknown({"runs", "seed"}),
              ::testing::ExitedWithCode(2),
              "^error: unknown flag --no-such-flag "
              "\\(accepted: --runs, --seed\\)\n$");
  EXPECT_EXIT(make_args({"prog", "--verbose"}).reject_unknown({}),
              ::testing::ExitedWithCode(2),
              "^error: unknown flag --verbose \\(accepted: none\\)\n$");
}

TEST(Args, OutputPathMustBeWritable) {
  EXPECT_EQ(make_args({"prog"}).get_output("json"), "");
  const std::string path = testing::TempDir() + "odtn_args_output_check";
  std::remove(path.c_str());
  EXPECT_EQ(make_args({"prog", "--json=" + path}).get_output("json"), path);
  // The check leaves no file behind.
  EXPECT_EQ(std::fopen(path.c_str(), "r"), nullptr);
  EXPECT_EXIT(make_args({"prog", "--json=/nonexistent-dir/x.json"})
                  .get_output("json"),
              ::testing::ExitedWithCode(2),
              "--json=/nonexistent-dir/x.json cannot be opened for writing");
}

TEST(Args, NumericFlagsAcceptWholeNumbers) {
  Args a = make_args({"prog", "--k=3", "--x=1e-3", "--y=-0.25"});
  EXPECT_EQ(a.get_unsigned("k", 0), 3u);
  EXPECT_DOUBLE_EQ(a.get_double("x", 0), 1e-3);
  EXPECT_DOUBLE_EQ(a.get_double("y", 0), -0.25);
}

TEST(Args, UnsignedFlagsRejectNegativeValues) {
  Args a = make_args({"prog", "--runs=12", "--big=18446744073709551615"});
  EXPECT_EQ(a.get_unsigned("runs", 0), 12u);
  EXPECT_EQ(a.get_unsigned("big", 0), UINT64_MAX);
  EXPECT_EQ(a.get_unsigned("absent", 7), 7u);
  EXPECT_EXIT(make_args({"prog", "--runs=-1"}).get_unsigned("runs", 0),
              ::testing::ExitedWithCode(2),
              "--runs=-1 is not a non-negative integer");
  EXPECT_EXIT(make_args({"prog", "--threads=-1"}).get_unsigned("threads", 0),
              ::testing::ExitedWithCode(2), "--threads=-1");
  EXPECT_EXIT(make_args({"prog", "--n=3x"}).get_unsigned("n", 0),
              ::testing::ExitedWithCode(2), "--n=3x");
  EXPECT_EXIT(make_args({"prog", "--n=18446744073709551616"})
                  .get_unsigned("n", 0),
              ::testing::ExitedWithCode(2), "--n=18446744073709551616");
  EXPECT_EXIT(make_args({"prog", "--p=256"}).get_unsigned("p", 0, 255),
              ::testing::ExitedWithCode(2), "--p=256 exceeds 255");
  EXPECT_EQ(make_args({"prog", "--p=255"}).get_unsigned("p", 0, 255), 255u);
}

TEST(Args, FlagFollowedByFlagDoesNotConsume) {
  Args a = make_args({"prog", "--flag", "--runs=5"});
  EXPECT_TRUE(a.get_bool("flag", false));
  EXPECT_EQ(a.get_unsigned("runs", 0), 5u);
}

}  // namespace
}  // namespace odtn::util
