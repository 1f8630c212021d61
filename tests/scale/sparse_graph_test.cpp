#include "graph/sparse_contact_graph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace odtn::graph {
namespace {

TEST(SparseContactGraph, EmptyGraph) {
  SparseContactGraph g(5);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.rate(0, 1), 0.0);
  EXPECT_EQ(g.row_rate_sum(3), 0.0);
  EXPECT_EQ(g.total_rate(), 0.0);
}

TEST(SparseContactGraph, BuilderRoundTrip) {
  SparseContactGraph::Builder b(4);
  b.add_edge(0, 1, 0.5);
  b.add_edge(2, 0, 0.25);  // order of (i, j) is free
  b.add_edge(1, 3, 1.0);
  auto g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_DOUBLE_EQ(g.rate(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(g.rate(1, 0), 0.5);  // symmetric
  EXPECT_DOUBLE_EQ(g.rate(0, 2), 0.25);
  EXPECT_DOUBLE_EQ(g.rate(3, 1), 1.0);
  EXPECT_DOUBLE_EQ(g.rate(2, 3), 0.0);  // absent pair
  EXPECT_DOUBLE_EQ(g.row_rate_sum(0), 0.75);
  EXPECT_DOUBLE_EQ(g.total_rate(), 1.75);
}

TEST(SparseContactGraph, RowsAscendingAndParallel) {
  SparseContactGraph::Builder b(6);
  b.add_edge(3, 5, 0.3);
  b.add_edge(3, 0, 0.1);
  b.add_edge(3, 4, 0.2);
  auto g = std::move(b).build();
  auto ids = g.neighbor_ids(3);
  auto rates = g.neighbor_rates(3);
  ASSERT_EQ(ids.size(), 3u);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_EQ(ids[0], 0u);
  EXPECT_EQ(ids[1], 4u);
  EXPECT_EQ(ids[2], 5u);
  EXPECT_DOUBLE_EQ(rates[0], 0.1);
  EXPECT_DOUBLE_EQ(rates[1], 0.2);
  EXPECT_DOUBLE_EQ(rates[2], 0.3);
}

TEST(SparseContactGraph, DuplicateEdgesKeepFirst) {
  SparseContactGraph::Builder b(3);
  b.add_edge(0, 1, 0.5);
  b.add_edge(1, 0, 0.9);  // duplicate in the other orientation
  auto g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_DOUBLE_EQ(g.rate(0, 1), 0.5);
}

TEST(SparseContactGraph, ZeroRatesDropped) {
  SparseContactGraph::Builder b(3);
  b.add_edge(0, 1, 0.0);
  auto g = std::move(b).build();
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(SparseContactGraph, BuilderValidates) {
  SparseContactGraph::Builder b(3);
  EXPECT_THROW(b.add_edge(0, 0, 1.0), std::out_of_range);
  EXPECT_THROW(b.add_edge(0, 3, 1.0), std::out_of_range);
  EXPECT_THROW(b.add_edge(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(b.add_inter_contact_time(0, 1, 0.0), std::invalid_argument);
}

TEST(SparseContactGraph, QueriesValidateIds) {
  SparseContactGraph g(3);
  EXPECT_THROW(g.rate(0, 3), std::out_of_range);
  EXPECT_THROW(g.rate(3, 0), std::out_of_range);
  EXPECT_THROW(g.degree(3), std::out_of_range);
  std::vector<NodeId> bad = {7};
  EXPECT_THROW(g.rate_to_set(0, bad), std::out_of_range);
}

TEST(SparseContactGraph, RateToSetSkipsSelfAndAbsent) {
  SparseContactGraph::Builder b(5);
  b.add_edge(0, 1, 0.5);
  b.add_edge(0, 3, 0.25);
  auto g = std::move(b).build();
  std::vector<NodeId> targets = {0, 1, 2, 3};  // self + absent pair included
  EXPECT_DOUBLE_EQ(g.rate_to_set(0, targets), 0.75);
}

TEST(SparseContactGraph, AppendNeighborsAscending) {
  SparseContactGraph::Builder b(5);
  b.add_edge(2, 4, 0.1);
  b.add_edge(2, 1, 0.1);
  auto g = std::move(b).build();
  std::vector<NodeId> out = {9};  // append semantics: existing kept
  g.append_neighbors(2, out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 9u);
  EXPECT_EQ(out[1], 1u);
  EXPECT_EQ(out[2], 4u);
}

TEST(SparseContactGraph, MemoryBytesScalesWithEdgesNotNodesSquared) {
  util::Rng rng(7);
  auto g = sparse_community_contact_graph(10000, 8, 4, rng);
  // 8 directed entries/node * (4-byte id + 8-byte rate) + 8-byte offsets
  // ~ 100-200 bytes/node; the dense triangle would be ~400 KB/node.
  double per_node =
      static_cast<double>(g.memory_bytes()) / static_cast<double>(10000);
  EXPECT_LT(per_node, 1024.0);
  EXPECT_GT(per_node, 8.0);  // offsets alone guarantee this
}

TEST(SparseContactGraph, CommunityGeneratorShapesDegreeAndDeterminism) {
  util::Rng rng1(11), rng2(11);
  auto a = sparse_community_contact_graph(2000, 12, 8, rng1);
  auto b = sparse_community_contact_graph(2000, 12, 8, rng2);
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < 2000; v += 97) {
    EXPECT_EQ(a.degree(v), b.degree(v));
    auto ia = a.neighbor_ids(v);
    auto ib = b.neighbor_ids(v);
    ASSERT_EQ(ia.size(), ib.size());
    for (std::size_t k = 0; k < ia.size(); ++k) EXPECT_EQ(ia[k], ib[k]);
  }
  // Mean degree lands near the target (duplicate proposals collapse, so
  // slightly below; each of the n nodes proposes avg_degree/2 partners).
  double mean_degree = 2.0 * static_cast<double>(a.edge_count()) / 2000.0;
  EXPECT_GT(mean_degree, 8.0);
  EXPECT_LE(mean_degree, 12.0);
}

TEST(SparseContactGraph, CommunityGeneratorValidates) {
  util::Rng rng(1);
  EXPECT_THROW(sparse_community_contact_graph(10, 0, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(sparse_community_contact_graph(10, 10, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(sparse_community_contact_graph(10, 4, 11, rng),
               std::invalid_argument);
  // An infinite or NaN ICT bound would draw rate-0 pairs, i.e. an edgeless
  // graph; the dense generators reject the same ranges.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sparse_community_contact_graph(100, 8, 4, rng, 10.0, inf),
               std::invalid_argument);
  EXPECT_THROW(sparse_community_contact_graph(100, 8, 4, rng, 10.0, nan),
               std::invalid_argument);
  EXPECT_THROW(sparse_community_contact_graph(100, 8, 4, rng, nan, 360.0),
               std::invalid_argument);
}

TEST(SparseContactGraph, RandomGeneratorValidates) {
  util::Rng rng(1);
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(sparse_random_contact_graph(10, rng, 0.0, 360.0),
               std::invalid_argument);
  EXPECT_THROW(sparse_random_contact_graph(10, rng, 360.0, 10.0),
               std::invalid_argument);
  EXPECT_THROW(sparse_random_contact_graph(10, rng, 10.0, inf),
               std::invalid_argument);
  EXPECT_THROW(sparse_random_contact_graph(10, rng, 10.0, nan),
               std::invalid_argument);
  EXPECT_THROW(sparse_random_contact_graph(10, rng, nan, 360.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace odtn::graph
