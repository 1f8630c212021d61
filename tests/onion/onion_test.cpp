#include "onion/onion.hpp"

#include <gtest/gtest.h>

#include "groups/group_directory.hpp"
#include "groups/key_manager.hpp"

namespace odtn::onion {
namespace {

struct Fixture {
  groups::GroupDirectory dir{20, 5};  // groups: {0..4},{5..9},{10..14},{15..19}
  groups::KeyManager keys{dir, 99};
  OnionCodec codec;
  crypto::Drbg drbg{std::uint64_t{1234}};
};

util::Bytes msg() { return util::to_bytes("attack at dawn"); }

TEST(Onion, FullPeelSequence) {
  Fixture f;
  std::vector<GroupId> route = {1, 2, 3};
  NodeId dest = 0;
  util::Bytes wire = f.codec.build(msg(), dest, route, f.keys, f.drbg);
  EXPECT_EQ(wire.size(), f.codec.wire_size());

  // R_1 member peels: learns only the next group.
  auto l1 = f.codec.peel(wire, f.keys.group_key(1), f.drbg);
  ASSERT_TRUE(l1.has_value());
  EXPECT_EQ(l1->type, Peeled::Type::kRelay);
  EXPECT_EQ(l1->next_group, 2u);
  EXPECT_EQ(l1->dest, kInvalidNode);
  EXPECT_TRUE(l1->payload.empty());
  EXPECT_EQ(l1->next_wire.size(), f.codec.wire_size());

  // R_2 member peels.
  auto l2 = f.codec.peel(l1->next_wire, f.keys.group_key(2), f.drbg);
  ASSERT_TRUE(l2.has_value());
  EXPECT_EQ(l2->type, Peeled::Type::kRelay);
  EXPECT_EQ(l2->next_group, 3u);

  // R_3 (last relay group) learns the destination.
  auto l3 = f.codec.peel(l2->next_wire, f.keys.group_key(3), f.drbg);
  ASSERT_TRUE(l3.has_value());
  EXPECT_EQ(l3->type, Peeled::Type::kDeliver);
  EXPECT_EQ(l3->dest, dest);

  // Destination opens the final layer.
  auto fin = f.codec.peel(l3->next_wire, f.keys.inbox_key(dest), f.drbg);
  ASSERT_TRUE(fin.has_value());
  EXPECT_EQ(fin->type, Peeled::Type::kFinal);
  EXPECT_EQ(fin->payload, msg());
}

TEST(Onion, SingleRelayGroup) {
  Fixture f;
  util::Bytes wire = f.codec.build(msg(), 19, {0}, f.keys, f.drbg);
  auto l1 = f.codec.peel(wire, f.keys.group_key(0), f.drbg);
  ASSERT_TRUE(l1.has_value());
  EXPECT_EQ(l1->type, Peeled::Type::kDeliver);
  EXPECT_EQ(l1->dest, 19u);
  auto fin = f.codec.peel(l1->next_wire, f.keys.inbox_key(19), f.drbg);
  ASSERT_TRUE(fin.has_value());
  EXPECT_EQ(fin->payload, msg());
}

TEST(Onion, WireSizeConstantAcrossHops) {
  // The central traffic-analysis defense: every transmitted packet has the
  // same size regardless of remaining layers.
  Fixture f;
  util::Bytes wire = f.codec.build(msg(), 0, {1, 2, 3}, f.keys, f.drbg);
  std::vector<GroupId> route = {1, 2, 3};
  for (GroupId g : route) {
    EXPECT_EQ(wire.size(), f.codec.wire_size());
    auto p = f.codec.peel(wire, f.keys.group_key(g), f.drbg);
    ASSERT_TRUE(p.has_value());
    wire = p->next_wire;
  }
  EXPECT_EQ(wire.size(), f.codec.wire_size());
}

TEST(Onion, NonMemberCannotPeel) {
  Fixture f;
  util::Bytes wire = f.codec.build(msg(), 0, {1, 2}, f.keys, f.drbg);
  // Wrong group keys and wrong inbox keys all fail.
  EXPECT_FALSE(f.codec.peel(wire, f.keys.group_key(0), f.drbg).has_value());
  EXPECT_FALSE(f.codec.peel(wire, f.keys.group_key(2), f.drbg).has_value());
  EXPECT_FALSE(f.codec.peel(wire, f.keys.inbox_key(0), f.drbg).has_value());
}

TEST(Onion, LayerOrderEnforced) {
  // Peeling layer 2's key before layer 1 must fail (layers are nested).
  Fixture f;
  util::Bytes wire = f.codec.build(msg(), 0, {1, 2, 3}, f.keys, f.drbg);
  EXPECT_FALSE(f.codec.peel(wire, f.keys.group_key(2), f.drbg).has_value());
  EXPECT_FALSE(f.codec.peel(wire, f.keys.group_key(3), f.drbg).has_value());
}

TEST(Onion, TamperedPacketRejected) {
  Fixture f;
  util::Bytes wire = f.codec.build(msg(), 0, {1}, f.keys, f.drbg);
  // Flip a byte inside the fragment region (first bytes are nonce + ct).
  wire[20] ^= 0x01;
  EXPECT_FALSE(f.codec.peel(wire, f.keys.group_key(1), f.drbg).has_value());
}

TEST(Onion, TamperedPaddingIsHarmless) {
  // Padding is outside the authenticated fragment; flipping it must not
  // break routing (it is re-randomized at every hop anyway).
  Fixture f;
  util::Bytes wire = f.codec.build(msg(), 0, {1}, f.keys, f.drbg);
  wire[wire.size() - 1] ^= 0xff;
  EXPECT_TRUE(f.codec.peel(wire, f.keys.group_key(1), f.drbg).has_value());
}

TEST(Onion, WrongWireSizeRejected) {
  Fixture f;
  util::Bytes wire = f.codec.build(msg(), 0, {1}, f.keys, f.drbg);
  util::Bytes shorter(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(f.codec.peel(shorter, f.keys.group_key(1), f.drbg).has_value());
  wire.push_back(0);
  EXPECT_FALSE(f.codec.peel(wire, f.keys.group_key(1), f.drbg).has_value());
}

TEST(Onion, EmptyAndMaxPayload) {
  Fixture f;
  for (std::size_t len : {std::size_t{0}, f.codec.config().payload_size}) {
    util::Bytes payload(len, 0xab);
    util::Bytes wire = f.codec.build(payload, 5, {1}, f.keys, f.drbg);
    auto l1 = f.codec.peel(wire, f.keys.group_key(1), f.drbg);
    ASSERT_TRUE(l1.has_value());
    auto fin = f.codec.peel(l1->next_wire, f.keys.inbox_key(5), f.drbg);
    ASSERT_TRUE(fin.has_value());
    EXPECT_EQ(fin->payload, payload);
  }
}

TEST(Onion, OversizedPayloadRejected) {
  Fixture f;
  util::Bytes big(f.codec.config().payload_size + 1, 0);
  EXPECT_THROW(f.codec.build(big, 0, {1}, f.keys, f.drbg),
               std::invalid_argument);
}

TEST(Onion, TooManyLayersRejected) {
  Fixture f;
  std::vector<GroupId> route(f.codec.config().max_layers + 1, 1);
  EXPECT_THROW(f.codec.build(msg(), 0, route, f.keys, f.drbg),
               std::invalid_argument);
}

TEST(Onion, NoRelayGroupsRejected) {
  Fixture f;
  EXPECT_THROW(f.codec.build(msg(), 0, {}, f.keys, f.drbg),
               std::invalid_argument);
}

TEST(Onion, MaxLayersRoundTrip) {
  // Use a wider directory so max_layers distinct groups exist.
  groups::GroupDirectory dir{60, 4};  // 15 groups
  groups::KeyManager keys{dir, 5};
  OnionCodec codec;
  crypto::Drbg drbg{std::uint64_t{77}};
  std::vector<GroupId> route;
  for (std::size_t i = 0; i < codec.config().max_layers; ++i) {
    route.push_back(static_cast<GroupId>(i));
  }
  util::Bytes wire = codec.build(msg(), 59, route, keys, drbg);
  for (std::size_t i = 0; i < route.size(); ++i) {
    auto p = codec.peel(wire, keys.group_key(route[i]), drbg);
    ASSERT_TRUE(p.has_value()) << "layer " << i;
    wire = p->next_wire;
  }
}

TEST(Onion, RebuiltOnionsDiffer) {
  // Randomized nonces/padding: the same message yields different wires
  // (unlinkability across retransmissions).
  Fixture f;
  util::Bytes w1 = f.codec.build(msg(), 0, {1, 2}, f.keys, f.drbg);
  util::Bytes w2 = f.codec.build(msg(), 0, {1, 2}, f.keys, f.drbg);
  EXPECT_NE(w1, w2);
}

// A decoy (cover traffic) is uniformly random bytes of exactly
// wire_size(): the same size as a real onion, yet no key peels it.
TEST(Onion, DecoysAreIndistinguishableInSizeAndUnpeelable) {
  Fixture f;
  util::Bytes decoy = f.drbg.generate(f.codec.wire_size());
  util::Bytes real = f.codec.build(msg(), 0, {1, 2}, f.keys, f.drbg);
  EXPECT_EQ(decoy.size(), real.size());
  for (GroupId g = 0; g < f.dir.group_count(); ++g) {
    EXPECT_FALSE(f.codec.peel(decoy, f.keys.group_key(g), f.drbg)
                     .has_value());
  }
  for (NodeId v = 0; v < 5; ++v) {
    EXPECT_FALSE(f.codec.peel(decoy, f.keys.inbox_key(v), f.drbg)
                     .has_value());
  }
}

TEST(Onion, CustomConfigWireSize) {
  OnionConfig cfg;
  cfg.payload_size = 64;
  cfg.max_layers = 4;
  OnionCodec codec(cfg);
  // wire = nonce+tag+header+payload + max_layers * (nonce+tag+header)
  EXPECT_EQ(codec.wire_size(), codec.fragment_size(4));
  EXPECT_EQ(codec.fragment_size(0), 12u + 16u + 14u + 64u);
  EXPECT_EQ(codec.fragment_size(1) - codec.fragment_size(0), 42u);
}

TEST(Onion, InvalidConfigRejected) {
  OnionConfig bad;
  bad.payload_size = 0;
  EXPECT_THROW(OnionCodec{bad}, std::invalid_argument);
  bad.payload_size = 10;
  bad.max_layers = 0;
  EXPECT_THROW(OnionCodec{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace odtn::onion
