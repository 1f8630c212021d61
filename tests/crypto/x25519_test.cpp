#include "crypto/x25519.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "crypto/drbg.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace odtn::crypto {
namespace {

using util::from_hex;
using util::to_hex;

// RFC 7748 section 5.2 test vector #1.
TEST(X25519, Rfc7748Vector1) {
  util::Bytes scalar = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  util::Bytes point = from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(to_hex(x25519(scalar, point)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

// RFC 7748 section 5.2 test vector #2.
TEST(X25519, Rfc7748Vector2) {
  util::Bytes scalar = from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  util::Bytes point = from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(to_hex(x25519(scalar, point)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

// RFC 7748 section 5.2 iterated ladder: 1 and 1000 iterations.
TEST(X25519, Rfc7748IteratedLadder) {
  util::Bytes k = from_hex(
      "0900000000000000000000000000000000000000000000000000000000000000");
  util::Bytes u = k;
  // 1 iteration.
  util::Bytes r = x25519(k, u);
  EXPECT_EQ(to_hex(r),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
  // 1000 iterations (the RFC's second checkpoint).
  u = k;
  k = r;
  // We already did one; continue to 1000.
  for (int i = 1; i < 1000; ++i) {
    util::Bytes next = x25519(k, u);
    u = k;
    k = next;
  }
  EXPECT_EQ(to_hex(k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

// RFC 7748 section 6.1 Diffie-Hellman test vector.
TEST(X25519, Rfc7748DiffieHellman) {
  util::Bytes alice_priv = from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  util::Bytes bob_priv = from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  util::Bytes alice_pub = x25519_base(alice_priv);
  util::Bytes bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(to_hex(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(to_hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  util::Bytes k1 = shared_secret(alice_priv, bob_pub);
  util::Bytes k2 = shared_secret(bob_priv, alice_pub);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(to_hex(k1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, SharedSecretAgreementRandomKeys) {
  util::Rng rng(42);
  for (int i = 0; i < 10; ++i) {
    KeyPair a = generate_keypair(rng);
    KeyPair b = generate_keypair(rng);
    EXPECT_EQ(shared_secret(a.private_key, b.public_key),
              shared_secret(b.private_key, a.public_key));
  }
}

TEST(X25519, DistinctKeysGiveDistinctSecrets) {
  util::Rng rng(43);
  KeyPair a = generate_keypair(rng);
  KeyPair b = generate_keypair(rng);
  KeyPair c = generate_keypair(rng);
  EXPECT_NE(shared_secret(a.private_key, b.public_key),
            shared_secret(a.private_key, c.public_key));
}

TEST(X25519, RejectsBadSizes) {
  EXPECT_THROW(x25519(util::Bytes(31, 0), util::Bytes(32, 9)),
               std::invalid_argument);
  EXPECT_THROW(x25519(util::Bytes(32, 0), util::Bytes(33, 9)),
               std::invalid_argument);
}

TEST(X25519, LowOrderPointYieldsAllZeroOutput) {
  // RFC 7748 §6.1: with a low-order input point the shared secret is the
  // all-zero string. The library's session-key derivation feeds the DH
  // output through HKDF with pair-specific info, so a zero output still
  // yields distinct per-pair keys — but callers implementing their own
  // exchange should check (documented behavior, asserted here).
  util::Bytes scalar(32, 0x42);
  util::Bytes zero_point(32, 0);  // the point at infinity encoding
  util::Bytes out = x25519(scalar, zero_point);
  EXPECT_EQ(out, util::Bytes(32, 0));
  util::Bytes one_point(32, 0);
  one_point[0] = 1;  // u = 1: a point of order 4 on the curve
  util::Bytes out2 = x25519(scalar, one_point);
  // The clamped scalar is a multiple of 8, so the output is again all zero.
  EXPECT_EQ(out2, util::Bytes(32, 0));
}

// RFC 7748 section 5: a u-coordinate at or above p is accepted and taken
// mod p. u + p stays below 2^255 for u < 19, so each such u, 0 among them,
// encoded as u + p must give what u gives.
TEST(X25519, NonCanonicalInputMatchesReduced) {
  util::Bytes scalar = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  for (int u = 0; u < 19; ++u) {
    util::Bytes canonical(32, 0);
    canonical[0] = static_cast<std::uint8_t>(u);
    util::Bytes wide(32, 0xff);  // p = 2^255 - 19 is ed ff .. ff 7f
    wide[0] = static_cast<std::uint8_t>(0xed + u);
    wide[31] = 0x7f;
    EXPECT_EQ(x25519(scalar, wide), x25519(scalar, canonical)) << "u = " << u;
  }
}

TEST(X25519, HighBitOfPointIsMasked) {
  // RFC 7748: the top bit of the u-coordinate must be ignored.
  util::Bytes scalar = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  util::Bytes point = from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  util::Bytes masked = point;
  masked[31] |= 0x80;
  EXPECT_EQ(x25519(scalar, point), x25519(scalar, masked));
}

// x25519_base runs the fixed-base Edwards comb; it must agree with the
// Montgomery ladder fed the encoded base point, including at edge scalars.
TEST(X25519, BaseMatchesGenericLadder) {
  util::Bytes base(kX25519KeySize, 0);
  base[0] = 9;
  std::vector<util::Bytes> scalars = {
      util::Bytes(32, 0x00), util::Bytes(32, 0xff),
      from_hex(
          "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"),
      from_hex(
          "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")};
  Drbg drbg(std::uint64_t{2551});
  for (int i = 0; i < 10000; ++i) scalars.push_back(drbg.generate(32));
  for (const util::Bytes& k : scalars) {
    ASSERT_EQ(x25519_base(k), x25519(k, base)) << to_hex(k);
  }
}

// Scalars whose radix-16 digits sit at the edges of the comb's signed
// recoding: nibbles of 8 (recoded to -8 with a carry into the next digit),
// 7 (kept), 15 (carry chains through every digit) and 0, and alternating
// 0x80/0x7f bytes, where each byte's carry decides whether the next one's
// low nibble wraps.
TEST(X25519, BaseMatchesGenericLadderOnRecodingEdges) {
  util::Bytes base(kX25519KeySize, 0);
  base[0] = 9;
  std::vector<util::Bytes> scalars;
  for (std::uint8_t b : {0x88, 0x77, 0xf8, 0x08}) {
    scalars.emplace_back(32, b);
  }
  util::Bytes alternating(32), alternating_flipped(32);
  for (std::size_t i = 0; i < 32; ++i) {
    alternating[i] = i % 2 == 0 ? 0x80 : 0x7f;
    alternating_flipped[i] = i % 2 == 0 ? 0x7f : 0x80;
  }
  scalars.push_back(alternating);
  scalars.push_back(alternating_flipped);
  for (const util::Bytes& k : scalars) {
    EXPECT_EQ(x25519_base(k), x25519(k, base)) << to_hex(k);
  }
}

// x25519_base_product runs one comb over clamp(a) * clamp(b) mod l; it
// must give the ladder's ECDH value x25519(a, x25519_base(b)) for random
// pairs and at the edges of the reduction mod l.
TEST(X25519, BaseProductMatchesLadder) {
  std::vector<std::pair<util::Bytes, util::Bytes>> pairs;
  // The extreme clamped scalars: all-0x00 clamps to 2^254, all-0xff to
  // 2^255 - 8, so their products are the smallest and largest inputs the
  // reduction sees.
  const util::Bytes low(32, 0x00), high(32, 0xff);
  pairs.emplace_back(low, low);
  pairs.emplace_back(low, high);
  pairs.emplace_back(high, low);
  pairs.emplace_back(high, high);
  // Pairs whose clamped product mod l is l - 1 (the point -B, u = 9), 1
  // (B itself) and 0x536f654abec239a475b0124ec6348ff6 (below 2^128, so the
  // comb's upper digits are all zero). Each b is the clamped
  // representative of target / clamp(a) mod l.
  const std::pair<const char*, const char*> reduction_edges[] = {
      {"aa71ad738ab139617a553870a01744ebc1ef797c1cab15608fb961f795630639",
       "50078222bc0f4c04d90428654dc43e97b67bb8277ebfab3e0ce81f9a3c70616b"},
      {"e172e7239e006f4d7fc9a67d63dfcc0b69550dc184f7486b8197dd79cdde9b21",
       "98e25987ce4f5c2467887a2494044c1209f6dbd8d6ef3a9f99cb7b1650b7d676"},
      {"1031a1e00f3137c9d1515bc28b340d80b5eba358b66e1a288a4fea18264bdaa6",
       "a811040bf36a64f98efa6deb6f57c6d515d57561f6ac6257937b2b0ecb35ec66"}};
  for (const auto& [a, b] : reduction_edges) {
    pairs.emplace_back(from_hex(a), from_hex(b));
  }
  util::Bytes nine(kX25519KeySize, 0);
  nine[0] = 9;
  EXPECT_EQ(x25519_base_product(pairs[4].first, pairs[4].second), nine);
  EXPECT_EQ(x25519_base_product(pairs[5].first, pairs[5].second), nine);

  Drbg drbg(std::uint64_t{7748});
  for (int i = 0; i < 10000; ++i) {
    util::Bytes a = drbg.generate(32);
    pairs.emplace_back(std::move(a), drbg.generate(32));
  }
  for (const auto& [a, b] : pairs) {
    ASSERT_EQ(x25519_base_product(a, b), x25519(a, x25519_base(b)))
        << to_hex(a) << " " << to_hex(b);
  }
  EXPECT_THROW(x25519_base_product(util::Bytes(31, 0), low),
               std::invalid_argument);
  EXPECT_THROW(x25519_base_product(low, util::Bytes(33, 0)),
               std::invalid_argument);
}

// Four threads make the process's first comb calls at once, so they race
// to build the comb table (each ctest entry runs in its own process, so no
// earlier test has built it), and must get what the ladder gives. Even
// threads enter through x25519_base, odd ones through x25519_base_product.
TEST(X25519, ConcurrentFirstBaseCallsMatchLadder) {
  constexpr int kThreads = 4;
  std::vector<util::Bytes> scalars;
  Drbg drbg(std::uint64_t{4099});
  for (int i = 0; i <= kThreads; ++i) scalars.push_back(drbg.generate(32));
  auto call = [&](int i) {
    return i % 2 == 0 ? x25519_base(scalars[i])
                      : x25519_base_product(scalars[i], scalars[i + 1]);
  };
  std::vector<util::Bytes> got(kThreads);
  {
    std::latch start(kThreads);
    std::vector<std::jthread> pool;  // joined at the end of this scope
    for (int i = 0; i < kThreads; ++i) {
      pool.emplace_back([&, i] {
        start.arrive_and_wait();
        got[i] = call(i);
      });
    }
  }
  util::Bytes base(kX25519KeySize, 0);
  base[0] = 9;
  for (int i = 0; i < kThreads; ++i) {
    const util::Bytes& point =
        i % 2 == 0 ? base : x25519(scalars[i + 1], base);
    EXPECT_EQ(got[i], x25519(scalars[i], point)) << "thread " << i;
    EXPECT_EQ(got[i], call(i)) << "thread " << i;
  }
}

TEST(X25519, KeypairDeterministicPerSeed) {
  util::Rng r1(7), r2(7);
  KeyPair a = generate_keypair(r1);
  KeyPair b = generate_keypair(r2);
  EXPECT_EQ(a.private_key, b.private_key);
  EXPECT_EQ(a.public_key, b.public_key);
}

}  // namespace
}  // namespace odtn::crypto
