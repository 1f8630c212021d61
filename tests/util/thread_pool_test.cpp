#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace odtn::util {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 7u}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(hits.size(), threads,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  parallel_for(0, 8, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelFor, MoreThreadsThanItems) {
  std::atomic<int> counter{0};
  parallel_for(3, 64, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ParallelFor, PropagatesException) {
  EXPECT_THROW(
      parallel_for(100, 4,
                   [](std::size_t i) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, SerialFallbackPreservesOrder) {
  // threads <= 1 runs inline in index order (the engine's reproducibility
  // story doesn't rely on this, but the contract is worth pinning).
  std::vector<std::size_t> order;
  parallel_for(5, 1, [&](std::size_t i) { order.push_back(i); });
  std::vector<std::size_t> expected(5);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(DeriveSeed, DeterministicAndStreamSensitive) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 5), derive_seed(2, 5));
}

}  // namespace
}  // namespace odtn::util
