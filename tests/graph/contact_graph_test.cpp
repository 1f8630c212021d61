#include "graph/contact_graph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <utility>

namespace odtn::graph {
namespace {

TEST(ContactGraph, StartsIsolated) {
  ContactGraph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  for (NodeId i = 0; i < 5; ++i) {
    for (NodeId j = 0; j < 5; ++j) {
      EXPECT_EQ(g.rate(i, j), 0.0);
    }
  }
  EXPECT_EQ(g.total_rate(), 0.0);
}

TEST(ContactGraph, RateIsSymmetric) {
  ContactGraph g(4);
  g.set_rate(1, 3, 0.25);
  EXPECT_EQ(g.rate(1, 3), 0.25);
  EXPECT_EQ(g.rate(3, 1), 0.25);
}

TEST(ContactGraph, SelfRateIsZero) {
  ContactGraph g(3);
  EXPECT_EQ(g.rate(2, 2), 0.0);
}

TEST(ContactGraph, SetRateValidation) {
  ContactGraph g(3);
  EXPECT_THROW(g.set_rate(0, 0, 1.0), std::out_of_range);
  EXPECT_THROW(g.set_rate(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(g.set_rate(0, 1, -1.0), std::invalid_argument);
}

TEST(ContactGraph, InterContactTimeIsInverseRate) {
  ContactGraph g(3);
  g.set_inter_contact_time(0, 1, 20.0);
  EXPECT_DOUBLE_EQ(g.rate(0, 1), 0.05);
  EXPECT_THROW(g.set_inter_contact_time(0, 1, 0.0), std::invalid_argument);
}

TEST(ContactGraph, TooSmallNetworkRejected) {
  EXPECT_THROW(ContactGraph(1), std::invalid_argument);
}

TEST(ContactGraph, RateToSetSumsAndSkipsSelf) {
  ContactGraph g(4);
  g.set_rate(0, 1, 0.1);
  g.set_rate(0, 2, 0.2);
  g.set_rate(0, 3, 0.4);
  EXPECT_DOUBLE_EQ(g.rate_to_set(0, std::vector<NodeId>{1, 2}), 0.3);
  EXPECT_DOUBLE_EQ(g.rate_to_set(0, std::vector<NodeId>{0, 1, 2, 3}), 0.7);
}

TEST(ContactGraph, MeanSetToSetRate) {
  ContactGraph g(5);
  // from = {0, 1}, to = {2, 3}
  g.set_rate(0, 2, 0.1);
  g.set_rate(0, 3, 0.2);
  g.set_rate(1, 2, 0.3);
  g.set_rate(1, 3, 0.4);
  // avg over senders of summed rate: ((0.1+0.2) + (0.3+0.4)) / 2 = 0.5
  EXPECT_DOUBLE_EQ(g.mean_set_to_set_rate(std::vector<NodeId>{0, 1}, std::vector<NodeId>{2, 3}), 0.5);
  EXPECT_THROW(g.mean_set_to_set_rate(std::vector<NodeId>{}, std::vector<NodeId>{2}), std::invalid_argument);
}

TEST(ContactGraph, TotalRateCountsEachPairOnce) {
  ContactGraph g(3);
  g.set_rate(0, 1, 1.0);
  g.set_rate(1, 2, 2.0);
  EXPECT_DOUBLE_EQ(g.total_rate(), 3.0);
}

TEST(ContactGraph, Neighbors) {
  ContactGraph g(4);
  g.set_rate(1, 0, 0.5);
  g.set_rate(1, 3, 0.5);
  EXPECT_EQ(g.neighbors(1), (std::vector<NodeId>{0, 3}));
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(RandomContactGraph, RatesWithinConfiguredRange) {
  util::Rng rng(1);
  ContactGraph g = random_contact_graph(20, rng, 10.0, 360.0);
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = i + 1; j < 20; ++j) {
      double ict = 1.0 / g.rate(i, j);
      EXPECT_GE(ict, 10.0);
      EXPECT_LE(ict, 360.0);
    }
  }
}

TEST(RandomContactGraph, FullyConnected) {
  util::Rng rng(2);
  ContactGraph g = random_contact_graph(10, rng);
  for (NodeId i = 0; i < 10; ++i) {
    EXPECT_EQ(g.neighbors(i).size(), 9u);
  }
}

TEST(RandomContactGraph, DeterministicPerSeed) {
  util::Rng r1(3), r2(3);
  ContactGraph a = random_contact_graph(10, r1);
  ContactGraph b = random_contact_graph(10, r2);
  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = i + 1; j < 10; ++j) {
      EXPECT_EQ(a.rate(i, j), b.rate(i, j));
    }
  }
}

TEST(RandomContactGraph, BadRangeRejected) {
  util::Rng rng(4);
  EXPECT_THROW(random_contact_graph(5, rng, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(random_contact_graph(5, rng, 20.0, 10.0), std::invalid_argument);
}

// The generators write 1 / ict straight into the rate array. Pin them to
// the checked set_inter_contact_time loop they replaced: every rate, and
// the RNG's next draw afterwards, must match a reference built with it.
void expect_same_draws(const ContactGraph& got, util::Rng& got_rng,
                       const ContactGraph& want, util::Rng& want_rng) {
  ASSERT_EQ(got.node_count(), want.node_count());
  for (NodeId i = 0; i < got.node_count(); ++i) {
    for (NodeId j = i + 1; j < got.node_count(); ++j) {
      EXPECT_EQ(got.rate(i, j), want.rate(i, j)) << i << "," << j;
    }
  }
  EXPECT_EQ(got_rng.next(), want_rng.next());
}

TEST(GraphGenerators, RandomMatchesCheckedReference) {
  util::Rng rng(31), ref_rng(31);
  ContactGraph g = random_contact_graph(37, rng, 10.0, 360.0);
  ContactGraph ref(37);
  for (NodeId i = 0; i < 37; ++i) {
    for (NodeId j = i + 1; j < 37; ++j) {
      ref.set_inter_contact_time(i, j, ref_rng.uniform(10.0, 360.0));
    }
  }
  expect_same_draws(g, rng, ref, ref_rng);
}

TEST(GraphGenerators, SparseMatchesCheckedReference) {
  util::Rng rng(32), ref_rng(32);
  ContactGraph g = sparse_contact_graph(37, 0.4, rng, 5.0, 60.0);
  ContactGraph ref(37);
  for (NodeId i = 0; i < 37; ++i) {
    for (NodeId j = i + 1; j < 37; ++j) {
      if (ref_rng.chance(0.4)) {
        ref.set_inter_contact_time(i, j, ref_rng.uniform(5.0, 60.0));
      }
    }
  }
  expect_same_draws(g, rng, ref, ref_rng);
}

TEST(GraphGenerators, CommunityMatchesCheckedReference) {
  util::Rng rng(33), ref_rng(33);
  ContactGraph g = community_contact_graph(37, 4, 6.0, rng, 10.0, 360.0);
  ContactGraph ref(37);
  const std::size_t block = (37 + 4 - 1) / 4;
  for (NodeId i = 0; i < 37; ++i) {
    for (NodeId j = i + 1; j < 37; ++j) {
      double ict = ref_rng.uniform(10.0, 360.0);
      if (i / block != j / block) ict *= 6.0;
      ref.set_inter_contact_time(i, j, ict);
    }
  }
  expect_same_draws(g, rng, ref, ref_rng);
}

TEST(GraphGenerators, BadIctRangeRejectedByEveryGenerator) {
  util::Rng rng(34);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> bad[] = {
      {0.0, 10.0}, {-1.0, 10.0}, {20.0, 10.0}, {nan, 10.0}, {1.0, nan},
      {1.0, inf}};
  for (auto [lo, hi] : bad) {
    EXPECT_THROW(random_contact_graph(5, rng, lo, hi), std::invalid_argument);
    EXPECT_THROW(sparse_contact_graph(5, 0.5, rng, lo, hi),
                 std::invalid_argument);
    EXPECT_THROW(community_contact_graph(5, 2, 2.0, rng, lo, hi),
                 std::invalid_argument);
  }
}

TEST(SparseContactGraph, DensityRoughlyMatchesP) {
  util::Rng rng(5);
  ContactGraph g = sparse_contact_graph(40, 0.3, rng);
  std::size_t edges = 0;
  for (NodeId i = 0; i < 40; ++i) {
    for (NodeId j = i + 1; j < 40; ++j) {
      if (g.rate(i, j) > 0.0) ++edges;
    }
  }
  double density = static_cast<double>(edges) / (40.0 * 39.0 / 2.0);
  EXPECT_NEAR(density, 0.3, 0.08);
}

TEST(SparseContactGraph, ExtremeProbabilities) {
  util::Rng rng(6);
  ContactGraph none = sparse_contact_graph(10, 0.0, rng);
  EXPECT_EQ(none.total_rate(), 0.0);
  ContactGraph full = sparse_contact_graph(10, 1.0, rng);
  EXPECT_EQ(full.neighbors(0).size(), 9u);
  EXPECT_THROW(sparse_contact_graph(10, 1.5, rng), std::invalid_argument);
}

TEST(CommunityContactGraph, IntraFasterThanInter) {
  util::Rng rng(7);
  // 2 communities of 10; inter pairs are 10x slower.
  ContactGraph g = community_contact_graph(20, 2, 10.0, rng, 10.0, 20.0);
  double intra = 0.0, inter = 0.0;
  std::size_t n_intra = 0, n_inter = 0;
  for (NodeId i = 0; i < 20; ++i) {
    for (NodeId j = i + 1; j < 20; ++j) {
      bool same = (i / 10) == (j / 10);
      (same ? intra : inter) += 1.0 / g.rate(i, j);
      (same ? n_intra : n_inter) += 1;
    }
  }
  EXPECT_GT(inter / n_inter, 5.0 * (intra / n_intra));
}

TEST(CommunityContactGraph, Validation) {
  util::Rng rng(8);
  EXPECT_THROW(community_contact_graph(10, 0, 2.0, rng),
               std::invalid_argument);
  EXPECT_THROW(community_contact_graph(10, 11, 2.0, rng),
               std::invalid_argument);
  EXPECT_THROW(community_contact_graph(10, 2, 0.5, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace odtn::graph
