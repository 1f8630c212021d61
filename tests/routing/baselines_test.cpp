#include "routing/baselines.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "graph/sparse_contact_graph.hpp"
#include "support/fnv1a.hpp"
#include "trace/synthetic.hpp"
#include "util/stats.hpp"

namespace odtn::routing {
namespace {

struct Fixture {
  Fixture(std::uint64_t seed = 1)
      : rng(seed),
        graph(graph::random_contact_graph(20, rng, 10.0, 60.0)),
        contacts(graph, rng) {}

  util::Rng rng;
  graph::ContactGraph graph;
  sim::PoissonContactModel contacts;
};

MessageSpec spec_for(NodeId src, NodeId dst, double ttl, std::size_t l = 1) {
  MessageSpec s;
  s.src = src;
  s.dst = dst;
  s.ttl = ttl;
  s.copies = l;
  return s;
}

// The fixture graph's contacts replayed as a trace: the same baselines on
// the deterministic trace backend.
struct TraceFixture {
  TraceFixture()
      : rng(1),
        trace(trace::sample_poisson_trace(
            graph::random_contact_graph(20, rng, 10.0, 60.0), kHorizon, rng)),
        contacts(trace) {}

  static constexpr Time kHorizon = 20000.0;
  util::Rng rng;
  trace::ContactTrace trace;
  sim::TraceContactModel contacts;
};

// Direct delivery by definition: one query for the first src-dst contact.
DeliveryResult direct_reference(sim::ContactModel& contacts,
                                const MessageSpec& spec) {
  DeliveryResult r;
  auto ev = contacts.first_cross_contact(std::span<const NodeId>(&spec.src, 1),
                                         std::span<const NodeId>(&spec.dst, 1),
                                         spec.start, spec.start + spec.ttl);
  if (ev.has_value()) {
    r.delivered = true;
    r.delay = ev->time - spec.start;
    r.transmissions = 1;
  }
  return r;
}

// Trial `i` of a sweep over distinct endpoint pairs and deadlines of a
// 20-node network.
MessageSpec mixed_spec(int i, std::size_t l = 1) {
  const auto src = static_cast<NodeId>(i % 20);
  return spec_for(src, static_cast<NodeId>((src + 1 + i % 19) % 20),
                  30.0 + 60.0 * (i % 5), l);
}

void expect_same(const DeliveryResult& a, const DeliveryResult& b) {
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.delay),
            std::bit_cast<std::uint64_t>(b.delay));
  EXPECT_EQ(a.transmissions, b.transmissions);
}

TEST(DirectDelivery, SingleTransmissionOnSuccess) {
  Fixture f;
  SprayAndWaitRouting protocol;  // one copy: direct delivery
  auto r = protocol.route(f.contacts, spec_for(0, 19, 1e7));
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.transmissions, 1u);
  EXPECT_GT(r.delay, 0.0);
}

TEST(DirectDelivery, FailsBeyondDeadline) {
  Fixture f;
  SprayAndWaitRouting protocol;  // one copy: direct delivery
  auto r = protocol.route(f.contacts, spec_for(0, 19, 1e-9));
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST(DirectDelivery, DelayMatchesPairRate) {
  Fixture f;
  SprayAndWaitRouting protocol;  // one copy: direct delivery
  util::RunningStats delays;
  for (int i = 0; i < 3000; ++i) {
    auto r = protocol.route(f.contacts, spec_for(0, 19, 1e9));
    ASSERT_TRUE(r.delivered);
    delays.add(r.delay);
  }
  EXPECT_NEAR(delays.mean(), 1.0 / f.graph.rate(0, 19),
              0.1 / f.graph.rate(0, 19));
}

TEST(SprayAndWait, CostAtMost2LMinus1) {
  Fixture f;
  TraceFixture t;
  SprayAndWaitRouting protocol;
  for (std::size_t l : {1u, 2u, 5u}) {
    for (int trial = 0; trial < 50; ++trial) {
      auto r = protocol.route(f.contacts, spec_for(0, 19, 1e7, l));
      EXPECT_LE(r.transmissions, 2 * l - 1) << "L=" << l;
      EXPECT_TRUE(r.delivered);
      auto spec = spec_for(0, 19, 1800.0, l);
      spec.start = 300.0 * trial;
      EXPECT_LE(protocol.route(t.contacts, spec).transmissions, 2 * l - 1)
          << "trace, L=" << l;
    }
  }
}

TEST(SprayAndWait, MoreCopiesFasterDelivery) {
  Fixture f;
  SprayAndWaitRouting protocol;
  util::RunningStats d1, d8;
  for (int trial = 0; trial < 400; ++trial) {
    d1.add(protocol.route(f.contacts, spec_for(0, 19, 1e9, 1)).delay);
    d8.add(protocol.route(f.contacts, spec_for(0, 19, 1e9, 8)).delay);
  }
  EXPECT_LT(d8.mean(), d1.mean());
}

TEST(SprayAndWait, SingleCopyEqualsDirectDelivery) {
  // Twin networks from one seed: one copy draws exactly what the direct
  // src-dst query draws, on both backends.
  Fixture a(7), b(7);
  TraceFixture t;
  SprayAndWaitRouting spray;
  for (int trial = 0; trial < 200; ++trial) {
    const auto spec = mixed_spec(trial);
    expect_same(spray.route(a.contacts, spec),
                direct_reference(b.contacts, spec));
    auto trace_spec = spec;
    trace_spec.start = 90.0 * trial;
    expect_same(spray.route(t.contacts, trace_spec),
                direct_reference(t.contacts, trace_spec));
  }
  EXPECT_EQ(a.rng.next(), b.rng.next());
}

TEST(SprayAndWait, ZeroCopiesRejected) {
  Fixture f;
  SprayAndWaitRouting protocol;
  EXPECT_THROW(protocol.route(f.contacts, spec_for(0, 1, 10.0, 0)),
               std::invalid_argument);
}

TEST(BinarySprayAndWait, CostAtMost2LMinus1) {
  Fixture f;
  TraceFixture t;
  SprayAndWaitRouting protocol(SprayAndWaitRouting::Split::kBinary);
  for (std::size_t l : {1u, 2u, 4u, 8u}) {
    for (int trial = 0; trial < 50; ++trial) {
      auto r = protocol.route(f.contacts, spec_for(0, 19, 1e7, l));
      EXPECT_LE(r.transmissions, 2 * l - 1) << "L=" << l;
      EXPECT_TRUE(r.delivered);
      auto spec = spec_for(0, 19, 1800.0, l);
      spec.start = 300.0 * trial;
      EXPECT_LE(protocol.route(t.contacts, spec).transmissions, 2 * l - 1)
          << "trace, L=" << l;
    }
  }
}

TEST(BinarySprayAndWait, SingleTicketEqualsDirectDelivery) {
  Fixture a(8), b(8);
  TraceFixture t;
  SprayAndWaitRouting binary(SprayAndWaitRouting::Split::kBinary);
  for (int trial = 0; trial < 200; ++trial) {
    const auto spec = mixed_spec(trial);
    expect_same(binary.route(a.contacts, spec),
                direct_reference(b.contacts, spec));
    auto trace_spec = spec;
    trace_spec.start = 90.0 * trial;
    expect_same(binary.route(t.contacts, trace_spec),
                direct_reference(t.contacts, trace_spec));
  }
  EXPECT_EQ(a.rng.next(), b.rng.next());
}

TEST(BinarySprayAndWait, EqualsSourceSprayUpToThreeCopies) {
  // With L <= 3 the source is the only holder ever left with more than one
  // ticket, and floor(t/2) = 1 there: binary splitting is source spraying.
  Fixture a(9), b(9);
  TraceFixture t;
  SprayAndWaitRouting binary(SprayAndWaitRouting::Split::kBinary);
  SprayAndWaitRouting source;
  for (std::size_t l : {2u, 3u}) {
    for (int trial = 0; trial < 100; ++trial) {
      const auto spec = mixed_spec(trial, l);
      expect_same(binary.route(a.contacts, spec),
                  source.route(b.contacts, spec));
      auto trace_spec = spec;
      trace_spec.start = 180.0 * trial;
      expect_same(binary.route(t.contacts, trace_spec),
                  source.route(t.contacts, trace_spec));
    }
  }
  EXPECT_EQ(a.rng.next(), b.rng.next());
}

TEST(BinarySprayAndWait, SpraysFasterThanSourceMode) {
  // The Spyropoulos result: binary splitting disseminates the L copies
  // exponentially faster, so delivery delay is at most that of source
  // spray (and typically lower for large L).
  Fixture f;
  SprayAndWaitRouting binary(SprayAndWaitRouting::Split::kBinary);
  SprayAndWaitRouting source;
  util::RunningStats db, ds;
  for (int trial = 0; trial < 600; ++trial) {
    db.add(binary.route(f.contacts, spec_for(0, 19, 1e9, 12)).delay);
    ds.add(source.route(f.contacts, spec_for(0, 19, 1e9, 12)).delay);
  }
  EXPECT_LT(db.mean(), ds.mean() * 1.05);
}

TEST(BinarySprayAndWait, MoreCopiesFaster) {
  Fixture f;
  SprayAndWaitRouting protocol(SprayAndWaitRouting::Split::kBinary);
  util::RunningStats d1, d8;
  for (int trial = 0; trial < 400; ++trial) {
    d1.add(protocol.route(f.contacts, spec_for(0, 19, 1e9, 1)).delay);
    d8.add(protocol.route(f.contacts, spec_for(0, 19, 1e9, 8)).delay);
  }
  EXPECT_LT(d8.mean(), d1.mean());
}

TEST(BinarySprayAndWait, Validation) {
  Fixture f;
  SprayAndWaitRouting protocol(SprayAndWaitRouting::Split::kBinary);
  EXPECT_THROW(protocol.route(f.contacts, spec_for(0, 1, 10.0, 0)),
               std::invalid_argument);
  EXPECT_THROW(protocol.route(f.contacts, spec_for(2, 2, 10.0, 2)),
               std::invalid_argument);
}

TEST(Epidemic, AlwaysDeliversWithGenerousDeadline) {
  Fixture f;
  EpidemicRouting protocol;
  for (int trial = 0; trial < 20; ++trial) {
    auto r = protocol.route(f.contacts, spec_for(0, 19, 1e7));
    EXPECT_TRUE(r.delivered);
  }
}

TEST(Epidemic, FasterThanDirectDelivery) {
  Fixture f;
  EpidemicRouting epidemic;
  SprayAndWaitRouting direct;  // one copy
  util::RunningStats de, dd;
  for (int trial = 0; trial < 300; ++trial) {
    de.add(epidemic.route(f.contacts, spec_for(0, 19, 1e9)).delay);
    dd.add(direct.route(f.contacts, spec_for(0, 19, 1e9)).delay);
  }
  EXPECT_LT(de.mean(), dd.mean() / 2.0);
}

TEST(Epidemic, TransmissionsBoundedByN) {
  Fixture f;
  EpidemicRouting protocol;
  auto r = protocol.route(f.contacts, spec_for(0, 19, 1e9));
  // At most n-1 infections.
  EXPECT_LE(r.transmissions, 19u);
  EXPECT_GE(r.transmissions, 1u);
}

TEST(Epidemic, CostExceedsOnionRoutingCost) {
  // The flooding overhead the paper's ticket-based schemes avoid.
  Fixture f;
  EpidemicRouting protocol;
  util::RunningStats cost;
  for (int trial = 0; trial < 100; ++trial) {
    cost.add(static_cast<double>(
        protocol.route(f.contacts, spec_for(0, 19, 1e9)).transmissions));
  }
  EXPECT_GT(cost.mean(), 8.0);  // far above K+1 = 4 for default K
}

TEST(Epidemic, DeterministicTrace) {
  trace::ContactTrace t(4, {{1.0, 0, 2}, {2.0, 2, 3}, {3.0, 3, 1}});
  sim::TraceContactModel contacts(t);
  EpidemicRouting protocol;
  auto r = protocol.route(contacts, spec_for(0, 1, 100.0));
  ASSERT_TRUE(r.delivered);
  EXPECT_EQ(r.delay, 3.0);
  EXPECT_EQ(r.transmissions, 3u);
}

// Byte-level pin of the baselines' observable behaviour: every
// (baseline, contact backend) case routes messages over several seeds and
// L values and folds `delivered`, the bits of `delay`, `transmissions` and
// each network's next RNG draw into one FNV-1a digest. A refactor of the
// baseline loops must leave every digest unchanged.
using test_support::Fnv1a;

enum class Baseline { kDirect, kSource, kBinary, kEpidemic };
enum class Backend { kDense, kSparse, kTrace };

DeliveryResult route_baseline(Baseline b, sim::ContactModel& contacts,
                              const MessageSpec& spec) {
  switch (b) {
    case Baseline::kDirect: {
      MessageSpec one_copy = spec;
      one_copy.copies = 1;
      return SprayAndWaitRouting().route(contacts, one_copy);
    }
    case Baseline::kSource:
      return SprayAndWaitRouting().route(contacts, spec);
    case Baseline::kBinary:
      return SprayAndWaitRouting(SprayAndWaitRouting::Split::kBinary)
          .route(contacts, spec);
    case Baseline::kEpidemic:
      return EpidemicRouting().route(contacts, spec);
  }
  return {};
}

struct DigestOutcome {
  std::uint64_t digest = 0;
  int messages = 0;
  int delivered = 0;
};

DigestOutcome run_digest(Baseline b, Backend backend) {
  constexpr int kMessages = 30;
  constexpr Time kSpacing = 60.0;
  constexpr Time kTtls[] = {30.0, 200.0, 1800.0};
  Fnv1a h;
  DigestOutcome out;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (std::size_t l : {1u, 2u, 3u, 5u, 8u, 40u}) {
      util::Rng rng(seed);
      std::unique_ptr<graph::ContactGraph> dense;
      std::unique_ptr<graph::SparseContactGraph> sparse;
      std::unique_ptr<trace::ContactTrace> trace;
      std::unique_ptr<sim::ContactModel> contacts;
      switch (backend) {
        case Backend::kDense:
          dense = std::make_unique<graph::ContactGraph>(
              graph::random_contact_graph(30, rng, 10.0, 360.0));
          contacts = std::make_unique<sim::PoissonContactModel>(*dense, rng);
          break;
        case Backend::kSparse:
          sparse = std::make_unique<graph::SparseContactGraph>(
              graph::sparse_community_contact_graph(60, 6, 3, rng));
          contacts = std::make_unique<sim::PoissonContactModel>(*sparse, rng);
          break;
        case Backend::kTrace:
          trace = std::make_unique<trace::ContactTrace>(
              trace::sample_poisson_trace(
                  graph::random_contact_graph(30, rng, 10.0, 360.0),
                  kSpacing * kMessages + 1800.0, rng));
          contacts = std::make_unique<sim::TraceContactModel>(*trace);
          break;
      }
      const std::size_t n = contacts->node_count();
      for (int i = 0; i < kMessages; ++i) {
        MessageSpec spec;
        spec.src = static_cast<NodeId>((7 * i + seed) % n);
        spec.dst = static_cast<NodeId>((spec.src + 1 + (13 * i) % (n - 1)) % n);
        spec.start = kSpacing * i;
        spec.ttl = kTtls[i % 3];
        spec.copies = l;
        const DeliveryResult r = route_baseline(b, *contacts, spec);
        h.u64(r.delivered);
        h.f64(r.delay);
        h.u64(r.transmissions);
        ++out.messages;
        out.delivered += r.delivered ? 1 : 0;
      }
      h.u64(rng.next());
    }
  }
  out.digest = h.value();
  return out;
}

TEST(Baselines, DigestPinned) {
  struct Case {
    const char* name;
    Baseline baseline;
    Backend backend;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {"direct_dense", Baseline::kDirect, Backend::kDense,
       0x78122bdec0864d25},
      {"direct_sparse", Baseline::kDirect, Backend::kSparse,
       0x1a1357657646b625},
      {"direct_trace", Baseline::kDirect, Backend::kTrace,
       0x825fdd2853198985},
      {"source_dense", Baseline::kSource, Backend::kDense,
       0x69b8c717877624b9},
      {"source_sparse", Baseline::kSource, Backend::kSparse,
       0xae905aa715f51dbb},
      {"source_trace", Baseline::kSource, Backend::kTrace,
       0x8ddf8b578c182e96},
      {"binary_dense", Baseline::kBinary, Backend::kDense,
       0x65ccb6433388d726},
      {"binary_sparse", Baseline::kBinary, Backend::kSparse,
       0x2c70e4a53090709f},
      {"binary_trace", Baseline::kBinary, Backend::kTrace,
       0x6d91a45d04a7f96a},
      {"epidemic_dense", Baseline::kEpidemic, Backend::kDense,
       0xc9575139137981f9},
      {"epidemic_sparse", Baseline::kEpidemic, Backend::kSparse,
       0xc32229fa6779eb9d},
      {"epidemic_trace", Baseline::kEpidemic, Backend::kTrace,
       0xaed3a2a2c548c429},
  };
  for (const Case& c : cases) {
    const DigestOutcome out = run_digest(c.baseline, c.backend);
    EXPECT_EQ(out.digest, c.expected)
        << c.name << ": digest 0x" << std::hex << out.digest;
    // Not vacuous: the deadlines split the messages into delivered and
    // undelivered ones.
    EXPECT_GT(out.delivered, 0) << c.name;
    EXPECT_LT(out.delivered, out.messages) << c.name;
  }
}

TEST(Baselines, SelfRouteRejected) {
  Fixture f;
  TraceFixture t;
  graph::SparseContactGraph sparse_graph = graph::sparse_from_dense(f.graph);
  sim::PoissonContactModel sparse(sparse_graph, f.rng);
  SprayAndWaitRouting spray;
  SprayAndWaitRouting binary(SprayAndWaitRouting::Split::kBinary);
  EpidemicRouting epidemic;
  // Self routes and endpoints past node_count() (20 here), on every backend.
  for (sim::ContactModel* contacts :
       {static_cast<sim::ContactModel*>(&f.contacts),
        static_cast<sim::ContactModel*>(&sparse),
        static_cast<sim::ContactModel*>(&t.contacts)}) {
    for (const MessageSpec& spec :
         {spec_for(3, 3, 10.0), spec_for(0, 20, 1e7), spec_for(20, 0, 1e7),
          spec_for(0, 99, 1e7, 3)}) {
      EXPECT_THROW(spray.route(*contacts, spec), std::invalid_argument);
      EXPECT_THROW(binary.route(*contacts, spec), std::invalid_argument);
      EXPECT_THROW(epidemic.route(*contacts, spec), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace odtn::routing
