#include <gtest/gtest.h>

#include <set>

#include "analysis/cost.hpp"
#include "routing/onion_routing.hpp"
#include "util/stats.hpp"

namespace odtn::routing {
namespace {

struct Fixture {
  Fixture(std::size_t n = 30, std::size_t g = 5, std::uint64_t seed = 1)
      : rng(seed),
        graph(graph::random_contact_graph(n, rng, 10.0, 60.0)),
        dir(n, g),
        keys(dir, seed),
        contacts(graph, rng) {
    ctx.directory = &dir;
    ctx.keys = &keys;
    ctx.codec = &codec;
  }

  util::Rng rng;
  graph::ContactGraph graph;
  groups::GroupDirectory dir;
  groups::KeyManager keys;
  onion::OnionCodec codec;
  sim::PoissonContactModel contacts;
  OnionContext ctx;
};

MessageSpec spec_for(NodeId src, NodeId dst, double ttl, std::size_t k,
                     std::size_t l) {
  MessageSpec s;
  s.src = src;
  s.dst = dst;
  s.ttl = ttl;
  s.num_relays = k;
  s.copies = l;
  return s;
}

TEST(MultiCopy, DeliversWithGenerousDeadline) {
  Fixture f;
  MultiCopyOnionRouting protocol(f.ctx);
  auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7, 3, 3), f.rng);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.relay_path.size(), 3u);
}

TEST(MultiCopy, CostBoundHolds) {
  // Sec. IV-C: total transmissions <= (K+2)L for spray-and-wait mode.
  Fixture f;
  MultiCopyOnionRouting protocol(f.ctx, SprayMode::kSprayAndWait);
  for (std::size_t l : {1u, 2u, 3u, 5u}) {
    for (int trial = 0; trial < 30; ++trial) {
      auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7, 3, l), f.rng);
      EXPECT_LE(r.transmissions, analysis::multi_copy_cost_bound(3, l))
          << "L=" << l;
    }
  }
}

TEST(MultiCopy, DirectModeCostBound) {
  // Algorithm 2 literal mode: at most (K+1)L transmissions.
  Fixture f;
  MultiCopyOnionRouting protocol(f.ctx, SprayMode::kDirectToFirstGroup);
  for (int trial = 0; trial < 30; ++trial) {
    auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7, 3, 3), f.rng);
    EXPECT_LE(r.transmissions, 4u * 3u);
  }
}

TEST(MultiCopy, MoreCopiesImproveDelivery) {
  Fixture f;
  MultiCopyOnionRouting protocol(f.ctx);
  util::RunningStats l1, l5;
  for (int trial = 0; trial < 250; ++trial) {
    l1.add(protocol.route(f.contacts, spec_for(0, 29, 60.0, 3, 1), f.rng)
               .delivered);
    l5.add(protocol.route(f.contacts, spec_for(0, 29, 60.0, 3, 5), f.rng)
               .delivered);
  }
  EXPECT_GT(l5.mean(), l1.mean());
}

TEST(MultiCopy, RelaysPerHopBoundedByCopies) {
  Fixture f;
  MultiCopyOnionRouting protocol(f.ctx);
  for (int trial = 0; trial < 20; ++trial) {
    auto r = protocol.route(f.contacts, spec_for(0, 29, 1e6, 3, 4), f.rng);
    ASSERT_EQ(r.relays_per_hop.size(), 3u);
    for (const auto& hop : r.relays_per_hop) {
      EXPECT_LE(hop.size(), 4u);
      // Distinct relays within a hop (Forward() dedup).
      std::set<NodeId> uniq(hop.begin(), hop.end());
      EXPECT_EQ(uniq.size(), hop.size());
    }
  }
}

TEST(MultiCopy, RelaysBelongToGroups) {
  Fixture f;
  MultiCopyOnionRouting protocol(f.ctx);
  auto r = protocol.route(f.contacts, spec_for(0, 29, 1e6, 3, 3), f.rng);
  ASSERT_TRUE(r.delivered);
  for (std::size_t k = 0; k < r.relays_per_hop.size(); ++k) {
    for (NodeId v : r.relays_per_hop[k]) {
      EXPECT_TRUE(f.dir.in_group(v, r.relay_groups[k]));
    }
  }
}

TEST(MultiCopy, SingleCopySpecialCaseMatchesSingleCopyProtocol) {
  // Algorithm 1 is Algorithm 2 at L = 1: from the same seed both classes
  // produce the identical DeliveryResult, in either spray mode.
  for (SprayMode mode :
       {SprayMode::kSprayAndWait, SprayMode::kDirectToFirstGroup}) {
    Fixture fm, fs;
    MultiCopyOnionRouting multi(fm.ctx, mode);
    SingleCopyOnionRouting single(fs.ctx);
    int delivered = 0;
    for (int trial = 0; trial < 200; ++trial) {
      auto spec = spec_for(0, 29, 40.0, 3, 1);
      auto rm = multi.route(fm.contacts, spec, fm.rng);
      auto rs = single.route(fs.contacts, spec, fs.rng);
      ASSERT_EQ(rm.delivered, rs.delivered) << "trial " << trial;
      EXPECT_EQ(rm.delay, rs.delay);
      EXPECT_EQ(rm.transmissions, rs.transmissions);
      EXPECT_EQ(rm.relay_path, rs.relay_path);
      EXPECT_EQ(rm.relays_per_hop, rs.relays_per_hop);
      EXPECT_EQ(rm.relay_groups, rs.relay_groups);
      EXPECT_EQ(rm.intra_group_hops, rs.intra_group_hops);
      EXPECT_EQ(rm.crypto_verified, rs.crypto_verified);
      EXPECT_EQ(rm.retransmissions, rs.retransmissions);
      EXPECT_EQ(rm.wire_cells, rs.wire_cells);
      EXPECT_EQ(rm.wire_bytes, rs.wire_bytes);
      delivered += rs.delivered ? 1 : 0;
    }
    // Both outcomes occur, so the comparison covers partial walks too.
    EXPECT_GT(delivered, 0);
    EXPECT_LT(delivered, 200);
  }
}

TEST(MultiCopy, RealCryptoVerifiesAllCopies) {
  Fixture f;
  f.ctx.crypto = CryptoMode::kReal;
  for (SprayMode mode :
       {SprayMode::kSprayAndWait, SprayMode::kDirectToFirstGroup}) {
    MultiCopyOnionRouting protocol(f.ctx, mode);
    auto spec = spec_for(0, 29, 1e7, 3, 3);
    spec.payload = util::to_bytes("multi-copy secret");
    auto r = protocol.route(f.contacts, spec, f.rng);
    ASSERT_TRUE(r.delivered);
    EXPECT_TRUE(r.crypto_verified);
  }
}

TEST(MultiCopy, NoDuplicateDeliveryTransmissions) {
  // Forward() declines a peer that has m: dst receives the message once, so
  // at most one final-hop transmission happens.
  Fixture f;
  MultiCopyOnionRouting protocol(f.ctx);
  for (int trial = 0; trial < 20; ++trial) {
    auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7, 2, 5), f.rng);
    if (!r.delivered) continue;
    // spray (L-1=4) + own+sprayed copies relaying through 2 groups (<=10)
    // + exactly 1 delivery.
    EXPECT_LE(r.transmissions, 4u + 10u + 1u);
  }
}

TEST(MultiCopy, FailsWithTinyDeadline) {
  Fixture f;
  MultiCopyOnionRouting protocol(f.ctx);
  auto r = protocol.route(f.contacts, spec_for(0, 29, 1e-9, 3, 3), f.rng);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST(MultiCopy, DeterministicTraceWithSpray) {
  // src=0 sprays one copy to node 1 (first met), then both race to R_1={2}.
  // Node 1 meets 2 first; relay 2 then meets dst=3.
  trace::ContactTrace t(4, {
                               {5.0, 0, 1},   // spray: 0 -> 1
                               {10.0, 1, 2},  // carrier 1 -> r_1
                               {20.0, 0, 2},  // src's own copy: r_1 already has m
                               {30.0, 2, 3},  // r_1 -> dst
                           });
  sim::TraceContactModel contacts(t);
  groups::GroupDirectory dir(4, 1);
  groups::KeyManager keys(dir, 1);
  onion::OnionCodec codec;
  OnionContext ctx{&dir, &keys, &codec, CryptoMode::kReal};
  MultiCopyOnionRouting protocol(ctx, SprayMode::kSprayAndWait);
  util::Rng rng(1);
  auto spec = spec_for(0, 3, 100.0, 1, 2);
  spec.payload = util::to_bytes("sprayed");
  std::vector<GroupId> forced = {2};
  auto r = protocol.route(contacts, spec, rng, &forced);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.delay, 30.0);
  EXPECT_EQ(r.relay_path, (std::vector<NodeId>{2}));
  // spray(0->1) + forward(1->2) + delivery(2->3); the event at t=20 must
  // not transmit (node 2 already has m).
  EXPECT_EQ(r.transmissions, 3u);
  EXPECT_TRUE(r.crypto_verified);
}

TEST(MultiCopy, Validation) {
  Fixture f;
  MultiCopyOnionRouting protocol(f.ctx);
  auto zero = spec_for(0, 1, 100.0, 3, 0);
  EXPECT_THROW(protocol.route(f.contacts, zero, f.rng),
               std::invalid_argument);
  auto self = spec_for(2, 2, 100.0, 3, 2);
  EXPECT_THROW(protocol.route(f.contacts, self, f.rng),
               std::invalid_argument);
  // Forced groups must name exactly K relay groups, at every L.
  std::vector<GroupId> short_list = {1, 2};
  for (std::size_t l : {1u, 3u}) {
    EXPECT_THROW(protocol.route(f.contacts, spec_for(0, 29, 100.0, 3, l),
                                f.rng, &short_list),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace odtn::routing
