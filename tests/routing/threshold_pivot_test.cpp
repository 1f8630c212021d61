#include "routing/threshold_pivot.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "routing/onion_routing.hpp"
#include "support/fnv1a.hpp"
#include "trace/synthetic.hpp"
#include "util/stats.hpp"

namespace odtn::routing {
namespace {

struct Fixture {
  Fixture(std::size_t n = 30, std::size_t g = 5, std::uint64_t seed = 1)
      : rng(seed),
        graph(graph::random_contact_graph(n, rng, 10.0, 60.0)),
        dir(n, g),
        keys(dir, seed),
        contacts(graph, rng) {}

  util::Rng rng;
  graph::ContactGraph graph;
  groups::GroupDirectory dir;
  groups::KeyManager keys;
  sim::PoissonContactModel contacts;
};

MessageSpec spec_for(NodeId src, NodeId dst, double ttl) {
  MessageSpec s;
  s.src = src;
  s.dst = dst;
  s.ttl = ttl;
  return s;
}

TEST(ThresholdPivot, DeliversWithGenerousDeadline) {
  Fixture f;
  ThresholdPivotRouting protocol(f.dir);
  auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7), f.rng);
  ASSERT_TRUE(r.delivered);
  EXPECT_GE(r.shares_at_pivot, protocol.options().threshold);
  EXPECT_NE(r.pivot, 0u);
  EXPECT_NE(r.pivot, 29u);
  EXPECT_GT(r.delay, 0.0);
}

TEST(ThresholdPivot, TransmissionsBounded) {
  // Each share: at most 2 transmissions (src->relay->pivot); the pivot
  // stops collecting at tau shares, then 1 transmission to dst.
  Fixture f;
  TpsOptions opt;
  opt.share_count = 5;
  opt.threshold = 3;
  ThresholdPivotRouting protocol(f.dir, opt);
  for (int trial = 0; trial < 30; ++trial) {
    auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7), f.rng);
    EXPECT_LE(r.transmissions, 2 * 5 + 1u);
  }
}

TEST(ThresholdPivot, FailsWithTinyDeadline) {
  Fixture f;
  ThresholdPivotRouting protocol(f.dir);
  auto r = protocol.route(f.contacts, spec_for(0, 29, 1e-9), f.rng);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.shares_at_pivot, 0u);
}

TEST(ThresholdPivot, FasterThanDeepOnionPath) {
  // The structural advantage TPS trades anonymity for: shares travel in
  // parallel over 2 hops, vs K+1 sequential onion hops.
  Fixture f;
  ThresholdPivotRouting tps(f.dir);
  onion::OnionCodec codec;
  OnionContext ctx{&f.dir, &f.keys, &codec, CryptoMode::kNone};
  SingleCopyOnionRouting onion(ctx);

  util::RunningStats tps_delay, onion_delay;
  for (int trial = 0; trial < 200; ++trial) {
    auto rt = tps.route(f.contacts, spec_for(0, 29, 1e7), f.rng);
    MessageSpec os = spec_for(0, 29, 1e7);
    os.num_relays = 5;
    auto ro = onion.route(f.contacts, os, f.rng);
    if (rt.delivered) tps_delay.add(rt.delay);
    if (ro.delivered) onion_delay.add(ro.delay);
  }
  EXPECT_LT(tps_delay.mean(), onion_delay.mean());
}

TEST(ThresholdPivot, HigherThresholdSlower) {
  Fixture f;
  TpsOptions loose{5, 1}, strict{5, 5};
  ThresholdPivotRouting p_loose(f.dir, loose);
  ThresholdPivotRouting p_strict(f.dir, strict);
  util::RunningStats d_loose, d_strict;
  for (int trial = 0; trial < 200; ++trial) {
    auto rl = p_loose.route(f.contacts, spec_for(0, 29, 1e7), f.rng);
    auto rs = p_strict.route(f.contacts, spec_for(0, 29, 1e7), f.rng);
    if (rl.delivered) d_loose.add(rl.delay);
    if (rs.delivered) d_strict.add(rs.delay);
  }
  EXPECT_LT(d_loose.mean(), d_strict.mean());
}

TEST(ThresholdPivot, ShareRelaysRecorded) {
  Fixture f;
  ThresholdPivotRouting protocol(f.dir);
  auto r = protocol.route(f.contacts, spec_for(0, 29, 1e7), f.rng);
  ASSERT_TRUE(r.delivered);
  std::size_t moved = 0;
  for (NodeId relay : r.share_relays) {
    if (relay != kInvalidNode) {
      ++moved;
      EXPECT_NE(relay, 0u);
    }
  }
  EXPECT_GE(moved, protocol.options().threshold);
}

TEST(ThresholdPivot, Validation) {
  Fixture f;
  EXPECT_THROW(ThresholdPivotRouting(f.dir, TpsOptions{3, 0}),
               std::invalid_argument);
  EXPECT_THROW(ThresholdPivotRouting(f.dir, TpsOptions{3, 4}),
               std::invalid_argument);
  ThresholdPivotRouting protocol(f.dir);
  EXPECT_THROW(protocol.route(f.contacts, spec_for(3, 3, 10.0), f.rng),
               std::invalid_argument);
}

enum class Backend { kPoisson, kTrace };

struct DigestOutcome {
  std::uint64_t digest = 0;
  int messages = 0;
  int delivered = 0;
};

// Every field of every result, over seeds 1-3 and three (s, tau) pairs,
// then the RNG's next draw: a change to what TPS draws from the stream, or
// when, moves the digest even where no result changes.
DigestOutcome run_digest(Backend backend) {
  constexpr std::size_t kNodes = 30;
  constexpr int kMessages = 30;
  constexpr Time kSpacing = 60.0;
  constexpr Time kTtls[] = {60.0, 400.0, 3000.0};
  const TpsOptions options[] = {{5, 3}, {3, 3}, {6, 2}};
  test_support::Fnv1a h;
  DigestOutcome out;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (const TpsOptions& opt : options) {
      util::Rng rng(seed);
      auto graph = graph::random_contact_graph(kNodes, rng, 10.0, 360.0);
      std::unique_ptr<trace::ContactTrace> trace;
      std::unique_ptr<sim::ContactModel> contacts;
      if (backend == Backend::kPoisson) {
        contacts = std::make_unique<sim::PoissonContactModel>(graph, rng);
      } else {
        trace = std::make_unique<trace::ContactTrace>(
            trace::sample_poisson_trace(graph, kSpacing * kMessages + 3000.0,
                                        rng));
        contacts = std::make_unique<sim::TraceContactModel>(*trace);
      }
      groups::GroupDirectory dir(kNodes, 5);
      ThresholdPivotRouting tps(dir, opt);
      for (int i = 0; i < kMessages; ++i) {
        MessageSpec spec;
        spec.src = static_cast<NodeId>((7 * i + seed) % kNodes);
        spec.dst = static_cast<NodeId>(
            (spec.src + 1 + (13 * i) % (kNodes - 1)) % kNodes);
        spec.start = kSpacing * i;
        spec.ttl = kTtls[i % 3];
        const TpsResult r = tps.route(*contacts, spec, rng);
        h.u64(r.delivered);
        h.f64(r.delay);
        h.u64(r.transmissions);
        h.u64(r.shares_at_pivot);
        h.u64(r.pivot);
        h.ids(r.share_relays);
        ++out.messages;
        out.delivered += r.delivered ? 1 : 0;
      }
      h.u64(rng.next());
    }
  }
  out.digest = h.value();
  return out;
}

TEST(ThresholdPivot, DigestPinned) {
  struct Case {
    const char* name;
    Backend backend;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {"poisson", Backend::kPoisson, 0x6f4c096999fb4e52},
      {"trace", Backend::kTrace, 0xa6ac96403d1da93e},
  };
  for (const Case& c : cases) {
    const DigestOutcome out = run_digest(c.backend);
    EXPECT_EQ(out.digest, c.expected)
        << c.name << ": digest 0x" << std::hex << out.digest;
    // Not vacuous: the deadlines split the messages into delivered and
    // undelivered ones.
    EXPECT_GT(out.delivered, 0) << c.name;
    EXPECT_LT(out.delivered, out.messages) << c.name;
  }
}

}  // namespace
}  // namespace odtn::routing
