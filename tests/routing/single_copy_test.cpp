#include <gtest/gtest.h>

#include "recovery/recovery.hpp"
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

MessageSpec spec_for(NodeId src, NodeId dst, double ttl, std::size_t k) {
  MessageSpec s;
  s.src = src;
  s.dst = dst;
  s.ttl = ttl;
  s.num_relays = k;
  return s;
}

TEST(SingleCopy, DeliversWithGenerousDeadline) {
  Fixture f;
  SingleCopyOnionRouting protocol(f.ctx);
  auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7, 3), f.rng);
  ASSERT_TRUE(r.delivered);
  EXPECT_GT(r.delay, 0.0);
  EXPECT_EQ(r.transmissions, 4u);  // K + 1
  EXPECT_EQ(r.relay_path.size(), 3u);
  EXPECT_EQ(r.relay_groups.size(), 3u);
}

TEST(SingleCopy, RelaysBelongToSelectedGroups) {
  Fixture f;
  SingleCopyOnionRouting protocol(f.ctx);
  for (int trial = 0; trial < 20; ++trial) {
    auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7, 3), f.rng);
    ASSERT_TRUE(r.delivered);
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_TRUE(f.dir.in_group(r.relay_path[k], r.relay_groups[k]))
          << "relay " << k << " not in its group";
    }
  }
}

TEST(SingleCopy, FailsWithTinyDeadline) {
  Fixture f;
  SingleCopyOnionRouting protocol(f.ctx);
  auto r = protocol.route(f.contacts, spec_for(0, 29, 1e-9, 3), f.rng);
  EXPECT_FALSE(r.delivered);
  EXPECT_TRUE(r.relay_path.empty());
}

TEST(SingleCopy, PartialProgressCountsTransmissions) {
  // With a deadline that usually allows some hops but not all, failed runs
  // should still report the transmissions used.
  Fixture f;
  SingleCopyOnionRouting protocol(f.ctx);
  bool saw_partial = false;
  for (int trial = 0; trial < 200 && !saw_partial; ++trial) {
    auto r = protocol.route(f.contacts, spec_for(0, 29, 6.0, 3), f.rng);
    if (r.delivered) continue;
    // relay_path describes the delivered copy only (types.hpp).
    EXPECT_TRUE(r.relay_path.empty());
    if (r.transmissions > 0) saw_partial = true;
  }
  EXPECT_TRUE(saw_partial);
}

TEST(SingleCopy, ForcedGroupsRespected) {
  Fixture f;
  SingleCopyOnionRouting protocol(f.ctx);
  std::vector<GroupId> forced = {2, 4, 1};
  auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7, 3), f.rng, &forced);
  EXPECT_EQ(r.relay_groups, forced);
}

TEST(SingleCopy, RealCryptoVerifies) {
  Fixture f;
  f.ctx.crypto = CryptoMode::kReal;
  SingleCopyOnionRouting protocol(f.ctx);
  auto spec = spec_for(0, 29, 1e7, 3);
  spec.payload = util::to_bytes("top secret coordinates");
  auto r = protocol.route(f.contacts, spec, f.rng);
  ASSERT_TRUE(r.delivered);
  EXPECT_TRUE(r.crypto_verified);
}

TEST(SingleCopy, RealCryptoAcrossRelayCounts) {
  Fixture f{60, 5, 3};
  f.ctx.crypto = CryptoMode::kReal;
  SingleCopyOnionRouting protocol(f.ctx);
  for (std::size_t k : {1u, 2u, 5u, 8u}) {
    auto spec = spec_for(0, 59, 1e8, k);
    spec.payload = util::to_bytes("k-relay message");
    auto r = protocol.route(f.contacts, spec, f.rng);
    ASSERT_TRUE(r.delivered) << "K=" << k;
    EXPECT_TRUE(r.crypto_verified) << "K=" << k;
    EXPECT_EQ(r.transmissions, k + 1);
  }
}

TEST(SingleCopy, LongerDeadlineNeverHurts) {
  // Monotonicity property: delivery within T implies delivery within T' > T
  // in distribution. Check statistically.
  Fixture f;
  SingleCopyOnionRouting protocol(f.ctx);
  util::RunningStats short_t, long_t;
  for (int trial = 0; trial < 300; ++trial) {
    auto r1 = protocol.route(f.contacts, spec_for(0, 29, 30.0, 3), f.rng);
    auto r2 = protocol.route(f.contacts, spec_for(0, 29, 300.0, 3), f.rng);
    short_t.add(r1.delivered ? 1 : 0);
    long_t.add(r2.delivered ? 1 : 0);
  }
  EXPECT_GT(long_t.mean(), short_t.mean());
}

TEST(SingleCopy, MoreRelaysSlowDelivery) {
  Fixture f;
  SingleCopyOnionRouting protocol(f.ctx);
  util::RunningStats k1, k5;
  for (int trial = 0; trial < 300; ++trial) {
    k1.add(protocol.route(f.contacts, spec_for(0, 29, 60.0, 1), f.rng).delivered);
    k5.add(protocol.route(f.contacts, spec_for(0, 29, 60.0, 5), f.rng).delivered);
  }
  EXPECT_GT(k1.mean(), k5.mean());
}

TEST(SingleCopy, DeterministicTracePath) {
  // Hand-built trace with exactly one viable path: the protocol must follow
  // it hop by hop.
  trace::ContactTrace t(6, {
                               {5.0, 0, 3},   // not in R_1: ignored
                               {10.0, 0, 1},  // src -> r_1
                               {15.0, 1, 4},  // not in R_2: ignored
                               {20.0, 1, 2},  // r_1 -> r_2
                               {30.0, 2, 3},  // r_2 -> r_3
                               {40.0, 3, 5},  // r_3 -> dst
                           });
  sim::TraceContactModel contacts(t);
  groups::GroupDirectory dir(6, 1);  // node i is group i
  groups::KeyManager keys(dir, 1);
  onion::OnionCodec codec;
  OnionContext ctx{&dir, &keys, &codec, CryptoMode::kReal};
  SingleCopyOnionRouting protocol(ctx);

  util::Rng rng(1);
  auto spec = spec_for(0, 5, 100.0, 3);
  spec.payload = util::to_bytes("deterministic");
  std::vector<GroupId> forced = {1, 2, 3};
  auto r = protocol.route(contacts, spec, rng, &forced);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.delay, 40.0);
  EXPECT_EQ(r.relay_path, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(r.transmissions, 4u);
  EXPECT_TRUE(r.crypto_verified);
}

TEST(SingleCopy, TraceDeadlineCutsDelivery) {
  trace::ContactTrace t(3, {{10.0, 0, 1}, {50.0, 1, 2}});
  sim::TraceContactModel contacts(t);
  groups::GroupDirectory dir(3, 1);
  groups::KeyManager keys(dir, 1);
  onion::OnionCodec codec;
  OnionContext ctx{&dir, &keys, &codec, CryptoMode::kNone};
  SingleCopyOnionRouting protocol(ctx);
  util::Rng rng(1);
  std::vector<GroupId> forced = {1};

  auto ok = protocol.route(contacts, spec_for(0, 2, 60.0, 1), rng, &forced);
  EXPECT_TRUE(ok.delivered);
  auto fail = protocol.route(contacts, spec_for(0, 2, 45.0, 1), rng, &forced);
  EXPECT_FALSE(fail.delivered);
  EXPECT_EQ(fail.transmissions, 1u);  // reached r_1 but not dst
}

TEST(SingleCopy, FirstGenerationCopyDeliversAfterRetransmission) {
  // L = 1 retransmission sprays a new generation; it does not truncate the
  // outstanding copy. Generation 0 reaches r_1 = 1 at t=5, the timeout
  // fires at t=10 while it waits for dst, and the retransmitted copy finds
  // no usable contact — so the message is delivered by generation 0 at
  // t=30, after one retransmission.
  trace::ContactTrace t(5, {{5.0, 0, 1}, {30.0, 1, 3}});
  sim::TraceContactModel contacts(t);
  groups::GroupDirectory dir(5, 1);  // node i is group i
  groups::KeyManager keys(dir, 1);
  onion::OnionCodec codec;
  recovery::RecoveryConfig rc;
  rc.retx_timeout = 10.0;
  rc.retx_max = 1;
  rc.retx_jitter = 0.0;
  OnionContext ctx{&dir, &keys, &codec, CryptoMode::kReal};
  ctx.recovery = &rc;
  SingleCopyOnionRouting protocol(ctx);
  util::Rng rng(1);
  auto spec = spec_for(0, 3, 100.0, 1);
  spec.payload = util::to_bytes("first generation");
  std::vector<GroupId> forced = {1};
  auto r = protocol.route(contacts, spec, rng, &forced);
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.retransmissions, 1u);
  EXPECT_EQ(r.delay, 30.0);
  EXPECT_EQ(r.relay_path, (std::vector<NodeId>{1}));
  EXPECT_EQ(r.relay_groups, forced);
  EXPECT_EQ(r.transmissions, 2u);
  EXPECT_TRUE(r.crypto_verified);
}

TEST(SingleCopy, Validation) {
  Fixture f;
  SingleCopyOnionRouting protocol(f.ctx);
  auto bad = spec_for(0, 0, 100.0, 3);
  EXPECT_THROW(protocol.route(f.contacts, bad, f.rng), std::invalid_argument);
  auto multi = spec_for(0, 1, 100.0, 3);
  multi.copies = 2;
  EXPECT_THROW(protocol.route(f.contacts, multi, f.rng),
               std::invalid_argument);
  OnionContext null_ctx;
  EXPECT_THROW(SingleCopyOnionRouting{null_ctx}, std::invalid_argument);
}

}  // namespace
}  // namespace odtn::routing
