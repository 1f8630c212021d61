#include "util/run_length.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace odtn::util {
namespace {

TEST(RunLength, EmptyInput) {
  EXPECT_EQ(traceable_rate({}), 0.0);
}

TEST(RunLength, AllZeros) {
  std::vector<bool> bits(5, false);
  EXPECT_EQ(traceable_rate(bits), 0.0);
}

TEST(RunLength, AllOnes) {
  std::vector<bool> bits(4, true);
  EXPECT_DOUBLE_EQ(traceable_rate(bits), 1.0);
}

TEST(RunLength, MixedRuns) {
  // 0110111 -> runs {2, 3}: (4 + 9) / 49
  std::vector<bool> bits = {false, true, true, false, true, true, true};
  EXPECT_DOUBLE_EQ(traceable_rate(bits), 13.0 / 49.0);
}

TEST(RunLength, PaperExampleScattered) {
  // Paper Sec. II-C: path v1..v5 (eta=4), v1,v2,v4 compromised ->
  // bits 1101 -> (2^2 + 1^2)/16 = 0.3125.
  std::vector<bool> bits = {true, true, false, true};
  EXPECT_DOUBLE_EQ(traceable_rate(bits), 0.3125);
}

TEST(RunLength, PaperExampleConsecutive) {
  // v2,v3,v4 compromised -> bits 0111 -> 9/16 = 0.5625.
  std::vector<bool> bits = {false, true, true, true};
  EXPECT_DOUBLE_EQ(traceable_rate(bits), 0.5625);
}

TEST(RunLength, TrailingRunCounted) {
  // 1011 -> runs {1, 2}: (1 + 4) / 16
  std::vector<bool> bits = {true, false, true, true};
  EXPECT_DOUBLE_EQ(traceable_rate(bits), 5.0 / 16.0);
}

TEST(RunLength, LeadingRunCounted) {
  std::vector<bool> bits = {true, true, false, false};
  EXPECT_DOUBLE_EQ(traceable_rate(bits), 4.0 / 16.0);
}

TEST(RunLength, SingleBit) {
  EXPECT_DOUBLE_EQ(traceable_rate({true}), 1.0);
  EXPECT_DOUBLE_EQ(traceable_rate({false}), 0.0);
}

TEST(RunLength, ConsecutiveBeatsScattered) {
  // Same number of ones: consecutive placement discloses more (Eq. 1).
  std::vector<bool> scattered = {true, false, true, false, true, false};
  std::vector<bool> consecutive = {true, true, true, false, false, false};
  EXPECT_GT(traceable_rate(consecutive), traceable_rate(scattered));
}

TEST(RunLength, SumSquaredMatchesRunsForRandomStrings) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<bool> bits(rng.below(30));
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = rng.chance(0.4);
    // Reference: list the maximal runs of ones, then sum their squares.
    std::vector<std::size_t> runs;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      if (!bits[i]) continue;
      if (i == 0 || !bits[i - 1]) runs.push_back(0);
      ++runs.back();
    }
    std::size_t sum = 0;
    for (std::size_t r : runs) sum += r * r;
    const double eta = static_cast<double>(bits.size());
    EXPECT_EQ(traceable_rate(bits),
              bits.empty() ? 0.0 : static_cast<double>(sum) / (eta * eta));
  }
}

TEST(RunLength, TraceableRateBounds) {
  Rng rng(78);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<bool> bits(1 + rng.below(20));
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = rng.chance(0.5);
    double p = traceable_rate(bits);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

}  // namespace
}  // namespace odtn::util
