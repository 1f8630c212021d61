#include "crypto/aead.hpp"

#include <gtest/gtest.h>

#include "crypto/chacha20.hpp"
#include "crypto/poly1305.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace odtn::crypto {
namespace {

using util::from_hex;
using util::to_bytes;
using util::to_hex;

// RFC 8439 section 2.8.2 AEAD test vector.
TEST(Aead, Rfc8439Vector) {
  util::Bytes key = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  util::Bytes nonce = from_hex("070000004041424344454647");
  util::Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  util::Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  util::Bytes sealed = aead_seal(key, nonce, aad, plaintext);
  ASSERT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);
  util::Bytes ct(sealed.begin(), sealed.end() - 16);
  util::Bytes tag(sealed.end() - 16, sealed.end());
  EXPECT_EQ(to_hex(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6"
            "3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36"
            "92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc"
            "3ff4def08e4b7a9de576d26586cec64b6116");
  EXPECT_EQ(to_hex(tag), "1ae10b594f09e26a7e902ecbd0600691");

  auto opened = aead_open(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plaintext);
}

TEST(Aead, RoundTripRandom) {
  util::Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    util::Bytes key(kAeadKeySize), nonce(kAeadNonceSize);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.below(256));
    util::Bytes pt(rng.below(300));
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.below(256));
    util::Bytes aad(rng.below(40));
    for (auto& b : aad) b = static_cast<std::uint8_t>(rng.below(256));

    auto sealed = aead_seal(key, nonce, aad, pt);
    auto opened = aead_open(key, nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value());
    EXPECT_EQ(*opened, pt);
  }
}

// Seal and open at the sizes where the keystream changes shape: empty, one
// byte, either side of one block, either side of the first four-block
// batch (192 bytes: from 193 on, blocks 1-4 come from one batch), either
// side of one full batch, and the wire path's 480-byte message. The output
// must be RFC 8439's construction from the reference functions: the
// plaintext XOR the stream from counter 1, then Poly1305 under block 0 over
// aad || pad16 || ciphertext || pad16 || the two lengths.
TEST(Aead, RoundTripAtBatchEdges) {
  util::Bytes key(kAeadKeySize), nonce(kAeadNonceSize);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(5 * i + 1);
  }
  for (std::size_t i = 0; i < nonce.size(); ++i) {
    nonce[i] = static_cast<std::uint8_t>(i + 40);
  }
  const util::Bytes aad = to_bytes("cell-header");
  for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 192u, 193u, 256u, 257u,
                        480u}) {
    util::Bytes pt(n);
    for (std::size_t i = 0; i < n; ++i) {
      pt[i] = static_cast<std::uint8_t>(3 * i + n);
    }
    const util::Bytes sealed = aead_seal(key, nonce, aad, pt);
    const util::Bytes ct = chacha20_xor(key, nonce, 1, pt);
    util::Bytes mac_data = aad;
    mac_data.resize((mac_data.size() + 15) / 16 * 16, 0);
    util::append(mac_data, ct);
    mac_data.resize((mac_data.size() + 15) / 16 * 16, 0);
    util::put_u64le(mac_data, aad.size());
    util::put_u64le(mac_data, ct.size());
    const auto block0 = chacha20_block(key, nonce, 0);
    util::Bytes expected = ct;
    util::append(expected,
                 poly1305_tag(util::Bytes(block0.begin(), block0.begin() + 32),
                              mac_data));
    EXPECT_EQ(sealed, expected) << "length " << n;

    const auto opened = aead_open(key, nonce, aad, sealed);
    ASSERT_TRUE(opened.has_value()) << "length " << n;
    EXPECT_EQ(*opened, pt) << "length " << n;
  }
}

TEST(Aead, WrongKeyFails) {
  util::Bytes key(kAeadKeySize, 1), nonce(kAeadNonceSize, 2);
  auto sealed = aead_seal(key, nonce, {}, to_bytes("secret"));
  util::Bytes wrong = key;
  wrong[0] ^= 1;
  EXPECT_FALSE(aead_open(wrong, nonce, {}, sealed).has_value());
}

TEST(Aead, WrongNonceFails) {
  util::Bytes key(kAeadKeySize, 1), nonce(kAeadNonceSize, 2);
  auto sealed = aead_seal(key, nonce, {}, to_bytes("secret"));
  util::Bytes wrong = nonce;
  wrong[5] ^= 0x80;
  EXPECT_FALSE(aead_open(key, wrong, {}, sealed).has_value());
}

TEST(Aead, WrongAadFails) {
  util::Bytes key(kAeadKeySize, 1), nonce(kAeadNonceSize, 2);
  auto sealed = aead_seal(key, nonce, to_bytes("header-a"), to_bytes("secret"));
  EXPECT_FALSE(aead_open(key, nonce, to_bytes("header-b"), sealed).has_value());
}

TEST(Aead, TamperedCiphertextFails) {
  util::Bytes key(kAeadKeySize, 1), nonce(kAeadNonceSize, 2);
  auto sealed = aead_seal(key, nonce, {}, to_bytes("secret payload"));
  for (std::size_t i = 0; i < sealed.size(); ++i) {
    util::Bytes tampered = sealed;
    tampered[i] ^= 0x01;
    EXPECT_FALSE(aead_open(key, nonce, {}, tampered).has_value())
        << "bit flip at byte " << i << " not detected";
  }
}

TEST(Aead, TruncatedInputFails) {
  util::Bytes key(kAeadKeySize, 1), nonce(kAeadNonceSize, 2);
  auto sealed = aead_seal(key, nonce, {}, to_bytes("secret"));
  util::Bytes truncated(sealed.begin(), sealed.begin() + 10);
  EXPECT_FALSE(aead_open(key, nonce, {}, truncated).has_value());
  EXPECT_FALSE(aead_open(key, nonce, {}, {}).has_value());
}

TEST(Aead, EmptyPlaintext) {
  util::Bytes key(kAeadKeySize, 9), nonce(kAeadNonceSize, 8);
  auto sealed = aead_seal(key, nonce, to_bytes("aad"), {});
  EXPECT_EQ(sealed.size(), kAeadTagSize);
  auto opened = aead_open(key, nonce, to_bytes("aad"), sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

}  // namespace
}  // namespace odtn::crypto
