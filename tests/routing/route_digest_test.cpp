// Byte-level pin of the onion protocols' observable behaviour. Each
// configuration routes a few hundred seeded messages and folds everything a
// caller can observe into one FNV-1a digest: every DeliveryResult field
// (relay_path only for delivered messages, where types.hpp gives it a
// meaning), the metrics JSONL export, the wire-mode cell stream, and the
// final RNG state. A refactor of the forwarding code must leave every digest
// unchanged; a deliberate behaviour change must re-pin them and say why.
#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "faults/faults.hpp"
#include "metrics/writer.hpp"
#include "recovery/recovery.hpp"
#include "routing/onion_routing.hpp"

namespace odtn::routing {
namespace {

// FNV-1a (64-bit), fed little-endian so the digests are host-independent.
class Fnv1a {
 public:
  void byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  template <typename T>
  void ids(const std::vector<T>& v) {
    u64(v.size());
    for (T x : v) u64(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

void fold_result(Fnv1a& h, const DeliveryResult& r) {
  h.u64(r.delivered);
  h.f64(r.delay);
  h.u64(r.transmissions);
  if (r.delivered) h.ids(r.relay_path);
  h.u64(r.relays_per_hop.size());
  for (const auto& hop : r.relays_per_hop) h.ids(hop);
  h.ids(r.relay_groups);
  h.u64(r.intra_group_hops);
  h.u64(r.crypto_verified);
  h.u64(r.retransmissions);
  h.u64(r.wire_cells);
  h.u64(r.wire_bytes);
}

struct PinCase {
  const char* name;
  std::size_t copies = 1;
  SprayMode spray = SprayMode::kSprayAndWait;
  bool real_crypto = false;
  bool wire = false;
  bool faults = false;
  bool dest_group = false;
  bool retx = false;
  std::uint64_t expected = 0;
};

constexpr std::size_t kNodes = 30;
constexpr std::size_t kGroupSize = 5;  // 6 groups >= K + 2
constexpr std::size_t kRelays = 3;
constexpr int kMessages = 240;
constexpr Time kSpacing = 40.0;
constexpr Time kTtl = 40.0;

struct Outcome {
  std::uint64_t digest = 0;
  int delivered = 0;
  std::size_t retransmissions = 0;
  std::size_t intra_group_hops = 0;
};

Outcome run_case(const PinCase& c) {
  util::Rng rng(0x5eed);
  auto graph = graph::random_contact_graph(kNodes, rng, 10.0, 60.0);
  groups::GroupDirectory dir(kNodes, kGroupSize, &rng);
  groups::KeyManager keys(dir, 3);
  onion::OnionCodec codec;
  sim::PoissonContactModel contacts(graph, rng);
  metrics::Registry reg;
  Fnv1a h;

  OnionContext ctx{&dir, &keys, &codec,
                   c.real_crypto ? CryptoMode::kReal : CryptoMode::kNone};
  ctx.metrics = &reg;
  ctx.wire_cells = c.wire;
  ctx.cell_tap = [&h](const circuit::CellEvent& e) {
    h.u64(e.sender);
    h.u64(e.receiver);
    h.u64(static_cast<std::uint64_t>(e.command));
    h.u64(e.bytes);
  };

  faults::FaultConfig fc;
  fc.mean_uptime = 300.0;
  fc.mean_downtime = 40.0;
  fc.p_fail = 0.1;
  fc.blackhole_fraction = 0.1;
  const Time horizon = kSpacing * kMessages + kTtl;
  faults::FaultPlan plan(fc, kNodes, horizon, 17);
  if (c.faults) ctx.faults = &plan;

  recovery::RecoveryConfig rc;
  rc.retx_timeout = 40.0;
  rc.suspicion_alpha = 0.3;
  recovery::SuspicionTracker suspicion(rc.suspicion_alpha,
                                       rc.suspicion_threshold);
  if (c.retx) {
    ctx.recovery = &rc;
    ctx.suspicion = &suspicion;
  }

  SingleCopyOnionRouting single(ctx);
  MultiCopyOnionRouting multi(ctx, c.spray);
  Outcome out;
  for (int i = 0; i < kMessages; ++i) {
    MessageSpec s;
    s.src = static_cast<NodeId>(rng.below(kNodes));
    s.dst = static_cast<NodeId>(rng.below(kNodes - 1));
    if (s.dst >= s.src) ++s.dst;
    s.start = kSpacing * i;
    s.ttl = kTtl;
    s.num_relays = kRelays;
    s.copies = c.copies;
    s.destination_group_delivery = c.dest_group;
    s.payload = util::to_bytes("pinned message " + std::to_string(i));
    const DeliveryResult r = c.copies == 1 ? single.route(contacts, s, rng)
                                           : multi.route(contacts, s, rng);
    fold_result(h, r);
    out.delivered += r.delivered ? 1 : 0;
    out.retransmissions += r.retransmissions;
    out.intra_group_hops += r.intra_group_hops;
  }
  h.str(metrics::to_jsonl(reg));
  h.u64(rng.next());
  out.digest = h.value();
  return out;
}

TEST(OnionRouting, RouteDigestPinned) {
  const PinCase cases[] = {
      {.name = "L1_zero_knob", .expected = 0x5d672c19770d3678},
      {.name = "L1_real_wire", .real_crypto = true, .wire = true,
       .expected = 0x390d69e62e7a925b},
      {.name = "L1_faults", .faults = true, .expected = 0xa82b5efc2db5a944},
      {.name = "L1_dest_group_real", .real_crypto = true,
       .dest_group = true, .expected = 0x2d3e68d59a1bcc6e},
      {.name = "L1_dest_group_faults", .faults = true, .dest_group = true,
       .expected = 0xd04988218617676c},
      {.name = "L3_spray_and_wait", .copies = 3,
       .expected = 0xe3fa0f27c8129f4d},
      {.name = "L3_direct", .copies = 3,
       .spray = SprayMode::kDirectToFirstGroup,
       .expected = 0xa6b4d708f8630645},
      {.name = "L3_faults_retx_suspicion", .copies = 3, .faults = true,
       .retx = true, .expected = 0x2030b8602c1ed0ac},
  };
  for (const PinCase& c : cases) {
    const Outcome out = run_case(c);
    EXPECT_EQ(out.digest, c.expected)
        << c.name << ": digest 0x" << std::hex << out.digest;
    // Not vacuous: the deadline splits the messages into delivered and
    // undelivered ones, and each optional layer actually does work.
    EXPECT_GT(out.delivered, 0) << c.name;
    EXPECT_LT(out.delivered, kMessages) << c.name;
    if (c.retx) {
      EXPECT_GT(out.retransmissions, 0u) << c.name;
    }
    if (c.dest_group) {
      EXPECT_GT(out.intra_group_hops, 0u) << c.name;
    }
  }
}

}  // namespace
}  // namespace odtn::routing
