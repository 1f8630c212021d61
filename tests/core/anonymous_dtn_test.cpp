#include "core/anonymous_dtn.hpp"

#include <gtest/gtest.h>

#include "trace/synthetic.hpp"

namespace odtn::core {
namespace {

TEST(AnonymousDtn, QuickstartFlow) {
  auto net = AnonymousDtn::over_random_graph(50, 5, /*seed=*/1);
  EXPECT_EQ(net.node_count(), 50u);

  SendOptions opts;
  opts.ttl = 1e7;
  auto r = net.send(0, 49, util::to_bytes("hello dtn"), opts);
  ASSERT_TRUE(r.delivered);
  EXPECT_TRUE(r.crypto_verified);
  EXPECT_EQ(r.transmissions, opts.num_relays + 1);
}

TEST(AnonymousDtn, MultiCopySend) {
  auto net = AnonymousDtn::over_random_graph(50, 5, 2);
  SendOptions opts;
  opts.copies = 3;
  opts.ttl = 1e7;
  auto r = net.send(0, 49, util::to_bytes("replicated"), opts);
  ASSERT_TRUE(r.delivered);
  EXPECT_TRUE(r.crypto_verified);
  EXPECT_LE(r.transmissions, (opts.num_relays + 2) * opts.copies);
}

TEST(AnonymousDtn, OverExplicitGraph) {
  util::Rng rng(3);
  auto g = graph::random_contact_graph(30, rng, 5.0, 50.0);
  auto net = AnonymousDtn::over_graph(std::move(g), 5, 3);
  SendOptions patient;
  patient.ttl = 1e7;
  auto r = net.send(1, 20, util::to_bytes("x"), patient);
  EXPECT_TRUE(r.delivered);
}

TEST(AnonymousDtn, OverTrace) {
  auto net =
      AnonymousDtn::over_trace(trace::make_cambridge_like(5), /*g=*/1, 5);
  EXPECT_EQ(net.node_count(), 12u);
  // Start during the first business day; allow a generous deadline.
  SendOptions opts;
  opts.start = 9.5 * 3600.0;
  opts.ttl = 8 * 3600.0;
  auto r = net.send(0, 11, util::to_bytes("trace msg"), opts);
  EXPECT_TRUE(r.delivered);
  EXPECT_TRUE(r.crypto_verified);
}

TEST(AnonymousDtn, BaselinesRunOnSameNetwork) {
  auto net = AnonymousDtn::over_random_graph(30, 5, 6);
  auto sw = net.send_spray_and_wait(0, 29, 4, 1e7);
  EXPECT_TRUE(sw.delivered);
  EXPECT_LE(sw.transmissions, 7u);
  auto ep = net.send_epidemic(0, 29, 1e7);
  EXPECT_TRUE(ep.delivered);
}

TEST(AnonymousDtn, TraceRatesEstimated) {
  auto net = AnonymousDtn::over_trace(trace::make_cambridge_like(7), 1, 7);
  // Dense synthetic trace: every pair has a positive estimated rate.
  const auto& rates = net.contact_rates();
  EXPECT_GT(rates.rate(0, 1), 0.0);
  EXPECT_GT(rates.rate(5, 9), 0.0);
}

TEST(AnonymousDtn, DirectoryConsistentWithNodeCount) {
  auto net = AnonymousDtn::over_random_graph(23, 5, 8);
  EXPECT_EQ(net.directory().node_count(), 23u);
  EXPECT_EQ(net.directory().group_count(), 5u);  // ceil(23/5)
  EXPECT_EQ(net.keys().node_count(), 23u);
}

TEST(AnonymousDtn, SprayModeOptionHonored) {
  auto net = core::AnonymousDtn::over_random_graph(40, 5, 13);
  core::SendOptions opts;
  opts.copies = 3;
  opts.ttl = 1e7;
  opts.spray = routing::SprayMode::kDirectToFirstGroup;
  auto r = net.send(0, 39, util::to_bytes("direct spray"), opts);
  ASSERT_TRUE(r.delivered);
  // Direct-to-first-group never uses carrier hops: cost <= (K+1)L.
  EXPECT_LE(r.transmissions, (opts.num_relays + 1) * opts.copies);
  EXPECT_TRUE(r.crypto_verified);
}

TEST(AnonymousDtn, DestinationGroupDeliveryViaFacade) {
  auto net = core::AnonymousDtn::over_random_graph(40, 5, 14);
  routing::OnionContext ctx;  // unused; facade has its own
  (void)ctx;
  core::SendOptions opts;
  opts.ttl = 1e7;
  // The facade routes single-copy when copies == 1; destination-group
  // delivery is a MessageSpec flag, so exercise it through the underlying
  // protocol with the facade's keys/directory.
  routing::MessageSpec spec;
  spec.src = 0;
  spec.dst = 39;
  spec.ttl = 1e7;
  spec.num_relays = 3;
  spec.destination_group_delivery = true;
  spec.payload = util::to_bytes("group-addressed");
  onion::OnionCodec codec;
  routing::OnionContext real_ctx{&net.directory(), &net.keys(), &codec,
                                 routing::CryptoMode::kReal};
  routing::SingleCopyOnionRouting protocol(real_ctx);
  util::Rng rng(3);
  graph::ContactGraph graph_copy = net.contact_rates();
  sim::PoissonContactModel contacts(graph_copy, rng);
  auto r = protocol.route(contacts, spec, rng);
  ASSERT_TRUE(r.delivered);
  EXPECT_TRUE(r.crypto_verified);
}

TEST(AnonymousDtn, UndeliveredWithinTinyTtl) {
  auto net = AnonymousDtn::over_random_graph(30, 5, 9);
  SendOptions hopeless;
  hopeless.ttl = 1e-9;
  auto r = net.send(0, 29, util::to_bytes("x"), hopeless);
  EXPECT_FALSE(r.delivered);
  EXPECT_FALSE(r.crypto_verified);
}

}  // namespace
}  // namespace odtn::core
