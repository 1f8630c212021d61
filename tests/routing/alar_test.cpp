#include "routing/alar.hpp"

#include <gtest/gtest.h>

#include <set>

#include "groups/group_directory.hpp"
#include "trace/synthetic.hpp"
#include "util/stats.hpp"

namespace odtn::routing {
namespace {

trace::ContactTrace dense_trace(std::uint64_t seed, std::size_t n = 30,
                                Time horizon = 3000.0) {
  util::Rng rng(seed);
  auto graph = graph::random_contact_graph(n, rng, 10.0, 60.0);
  return trace::sample_poisson_trace(graph, horizon, rng);
}

MessageSpec spec_for(NodeId src, NodeId dst, double ttl) {
  MessageSpec s;
  s.src = src;
  s.dst = dst;
  s.ttl = ttl;
  return s;
}

TEST(Alar, DeliversOnDenseTrace) {
  auto t = dense_trace(1);
  AlarRouting protocol;
  auto r = protocol.route(t, spec_for(0, 29, 3000.0));
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.segments_at_destination, 4u);
  EXPECT_GT(r.delay, 0.0);
}

TEST(Alar, InitialReceiversAreDistinctAndNotEndpoints) {
  auto t = dense_trace(2);
  AlarRouting protocol(AlarOptions{5, 5});
  auto r = protocol.route(t, spec_for(0, 29, 3000.0));
  std::set<NodeId> uniq;
  for (NodeId v : r.initial_receivers) {
    if (v == kInvalidNode) continue;
    EXPECT_NE(v, 0u);
    EXPECT_NE(v, 29u);
    EXPECT_TRUE(uniq.insert(v).second) << "duplicate initial receiver";
  }
  EXPECT_GE(uniq.size(), 4u);
}

TEST(Alar, CostIsEpidemicScale) {
  // The flooding price the paper's onion protocols avoid: ALAR's
  // transmissions are an order of magnitude above K+1.
  auto t = dense_trace(3);
  AlarRouting protocol;
  auto r = protocol.route(t, spec_for(0, 29, 3000.0));
  ASSERT_TRUE(r.delivered);
  EXPECT_GT(r.transmissions, 20u);
}

TEST(Alar, ThresholdBelowSegmentsDeliversFaster) {
  auto t = dense_trace(4, 30, 6000.0);
  AlarRouting all_needed(AlarOptions{5, 5});
  AlarRouting majority(AlarOptions{5, 3});
  util::RunningStats d_all, d_maj;
  for (NodeId dst = 10; dst < 29; ++dst) {
    auto ra = all_needed.route(t, spec_for(0, dst, 6000.0));
    auto rm = majority.route(t, spec_for(0, dst, 6000.0));
    if (ra.delivered) d_all.add(ra.delay);
    if (rm.delivered) d_maj.add(rm.delay);
  }
  ASSERT_GT(d_all.count(), 10u);
  EXPECT_LT(d_maj.mean(), d_all.mean());
}

TEST(Alar, FailsWithTinyDeadline) {
  auto t = dense_trace(5);
  AlarRouting protocol;
  auto r = protocol.route(t, spec_for(0, 29, 1e-9));
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST(Alar, RealCryptoReconstructs) {
  auto t = dense_trace(6);
  groups::GroupDirectory dir(30, 5);
  groups::KeyManager keys(dir, 6);
  AlarRouting protocol(AlarOptions{4, 3}, CryptoMode::kReal, &keys);
  auto spec = spec_for(0, 29, 3000.0);
  spec.payload = util::to_bytes("anti-localization payload");
  auto r = protocol.route(t, spec);
  ASSERT_TRUE(r.delivered);
  EXPECT_TRUE(r.crypto_verified);
}

TEST(Alar, DeterministicSmallTrace) {
  // 4 nodes; src 0 releases segments to 1 and 2 (distinct receivers), they
  // flood; dst 3 needs both.
  trace::ContactTrace t(4, {
                               {10.0, 0, 1},  // release seg0 -> 1
                               {20.0, 0, 1},  // nothing: 1 already has a segment
                               {30.0, 0, 2},  // release seg1 -> 2
                               {40.0, 1, 3},  // seg0 -> dst
                               {50.0, 2, 3},  // seg1 -> dst: delivered
                           });
  AlarRouting protocol(AlarOptions{2, 2});
  auto r = protocol.route(t, spec_for(0, 3, 100.0));
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.delay, 50.0);
  EXPECT_EQ(r.transmissions, 4u);
  EXPECT_EQ(r.initial_receivers, (std::vector<NodeId>{1, 2}));
}

TEST(Alar, SourceNeverHandsSegmentDirectlyToDestination) {
  // Anti-localization: the release phase skips dst, so an observer at dst
  // cannot link the source to the whole message.
  trace::ContactTrace t(4, {
                               {10.0, 0, 3},  // src meets dst: must NOT release
                               {20.0, 0, 1},
                               {30.0, 0, 2},
                               {40.0, 1, 3},
                               {50.0, 2, 3},
                           });
  AlarRouting protocol(AlarOptions{2, 2});
  auto r = protocol.route(t, spec_for(0, 3, 100.0));
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.delay, 50.0);
  for (NodeId v : r.initial_receivers) EXPECT_NE(v, 3u);
}

TEST(Alar, Validation) {
  EXPECT_THROW(AlarRouting(AlarOptions{0, 0}), std::invalid_argument);
  EXPECT_THROW(AlarRouting(AlarOptions{4, 5}), std::invalid_argument);
  EXPECT_THROW(AlarRouting(AlarOptions{4, 0}), std::invalid_argument);
  EXPECT_THROW(AlarRouting(AlarOptions{4, 4}, CryptoMode::kReal, nullptr),
               std::invalid_argument);
  auto t = dense_trace(9);
  AlarRouting protocol;
  EXPECT_THROW(protocol.route(t, spec_for(3, 3, 10.0)),
               std::invalid_argument);
  EXPECT_THROW(protocol.route(t, spec_for(0, 99, 10.0)),
               std::invalid_argument);
}

}  // namespace
}  // namespace odtn::routing
