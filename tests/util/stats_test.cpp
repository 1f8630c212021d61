#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace odtn::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 3.5);
  EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance is 4; sample variance is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStats, MinMaxTracked) {
  RunningStats s;
  s.add(5);
  s.add(-2);
  s.add(10);
  EXPECT_EQ(s.min(), -2.0);
  EXPECT_EQ(s.max(), 10.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats all, a, b;
  for (int i = 0; i < 50; ++i) {
    double x = std::sin(i) * 10;
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, empty;
  a.add(1);
  a.add(2);
  RunningStats b = a;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.mean(), b.mean());
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_EQ(empty.mean(), 1.5);
}

TEST(RunningStats, MergeOfSingletonShardsEqualsSequential) {
  // The extreme sharding case: every shard holds one element.
  RunningStats all, merged;
  for (double x : {1.0, -4.0, 2.5, 0.0, 9.75}) {
    all.add(x);
    RunningStats shard;
    shard.add(x);
    merged.merge(shard);
  }
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_NEAR(merged.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), all.variance(), 1e-10);
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
}

TEST(RunningStats, MergeManyShardsEqualsSinglePass) {
  // Parallel-variance merge across 7 uneven shards must agree with the
  // single accumulator over the concatenated stream.
  RunningStats all;
  std::vector<RunningStats> shards(7);
  for (int i = 0; i < 500; ++i) {
    double x = std::cos(i) * 100 + i * 0.01;
    all.add(x);
    shards[(i * i) % 7].add(x);
  }
  RunningStats merged;
  for (const auto& s : shards) merged.merge(s);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_NEAR(merged.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(merged.variance(), all.variance(), 1e-8);
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
}

TEST(RunningStats, MergeBothEmpty) {
  RunningStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(RunningStats, Ci95ShrinksWithSamples) {
  RunningStats small, large;
  for (int i = 0; i < 10; ++i) small.add(i % 3);
  for (int i = 0; i < 1000; ++i) large.add(i % 3);
  EXPECT_GT(small.ci95_halfwidth(), large.ci95_halfwidth());
}

}  // namespace
}  // namespace odtn::util
