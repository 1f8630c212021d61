#include "util/args.hpp"

#include <gtest/gtest.h>

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
  EXPECT_EQ(a.get_int("runs", 100), 500);
  EXPECT_EQ(a.get_int("seed", 1), 7);
}

TEST(Args, SpaceForm) {
  Args a = make_args({"prog", "--runs", "250"});
  EXPECT_EQ(a.get_int("runs", 100), 250);
}

TEST(Args, BareFlagIsTrue) {
  Args a = make_args({"prog", "--verbose"});
  EXPECT_TRUE(a.get_bool("verbose", false));
  EXPECT_FALSE(a.get_bool("quiet", false));
}

TEST(Args, DefaultsWhenAbsent) {
  Args a = make_args({"prog"});
  EXPECT_EQ(a.get("name", "dflt"), "dflt");
  EXPECT_EQ(a.get_int("n", 42), 42);
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
  EXPECT_EQ(a.get_int("k", 0), 3);
}

TEST(Args, BoolSpellings) {
  Args a = make_args({"prog", "--a=true", "--b=1", "--c=yes", "--d=false",
                      "--e=0"});
  EXPECT_TRUE(a.get_bool("a", false));
  EXPECT_TRUE(a.get_bool("b", false));
  EXPECT_TRUE(a.get_bool("c", false));
  EXPECT_FALSE(a.get_bool("d", true));
  EXPECT_FALSE(a.get_bool("e", true));
}

TEST(Args, HasAndProgram) {
  Args a = make_args({"my_bench", "--x=1"});
  EXPECT_TRUE(a.has("x"));
  EXPECT_FALSE(a.has("y"));
  EXPECT_EQ(a.program(), "my_bench");
}

TEST(Args, NumericFlagsRejectGarbage) {
  EXPECT_EXIT(make_args({"prog", "--n=abc"}).get_int("n", 0),
              ::testing::ExitedWithCode(2), "--n=abc is not a number");
  EXPECT_EXIT(make_args({"prog", "--threads=xyz"}).get_int("threads", 0),
              ::testing::ExitedWithCode(2), "--threads=xyz");
  EXPECT_EXIT(make_args({"prog", "--runs=12x"}).get_int("runs", 0),
              ::testing::ExitedWithCode(2), "--runs=12x");
  EXPECT_EXIT(make_args({"prog", "--runs="}).get_int("runs", 0),
              ::testing::ExitedWithCode(2), "--runs=");
  EXPECT_EXIT(make_args({"prog", "--rate=0.5s"}).get_double("rate", 0),
              ::testing::ExitedWithCode(2), "--rate=0.5s");
  EXPECT_EXIT(make_args({"prog", "--rate"}).get_double("rate", 0),
              ::testing::ExitedWithCode(2), "--rate=true");
}

TEST(Args, NumericFlagsAcceptWholeNumbers) {
  Args a = make_args({"prog", "--k=-3", "--x=1e-3", "--y=-0.25"});
  EXPECT_EQ(a.get_int("k", 0), -3);
  EXPECT_DOUBLE_EQ(a.get_double("x", 0), 1e-3);
  EXPECT_DOUBLE_EQ(a.get_double("y", 0), -0.25);
}

TEST(Args, FlagFollowedByFlagDoesNotConsume) {
  Args a = make_args({"prog", "--flag", "--runs=5"});
  EXPECT_TRUE(a.get_bool("flag", false));
  EXPECT_EQ(a.get_int("runs", 0), 5);
}

}  // namespace
}  // namespace odtn::util
