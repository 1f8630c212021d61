#include "crypto/chacha20.hpp"

#include <gtest/gtest.h>

#include "util/bytes.hpp"

namespace odtn::crypto {
namespace {

using util::from_hex;
using util::to_bytes;
using util::to_hex;

// RFC 8439 section 2.3.2: block function test vector.
TEST(ChaCha20, Rfc8439BlockFunction) {
  util::Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  util::Bytes nonce = from_hex("000000090000004a00000000");
  auto block = chacha20_block(key, nonce, 1);
  util::Bytes out(block.begin(), block.end());
  EXPECT_EQ(to_hex(out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

// RFC 8439 section 2.4.2: full encryption test vector.
TEST(ChaCha20, Rfc8439Encryption) {
  util::Bytes key = from_hex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  util::Bytes nonce = from_hex("000000000000004a00000000");
  util::Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  util::Bytes ciphertext = chacha20_xor(key, nonce, 1, plaintext);
  EXPECT_EQ(to_hex(ciphertext),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20, RoundTrip) {
  util::Bytes key(kChaChaKeySize, 0x11);
  util::Bytes nonce(kChaChaNonceSize, 0x22);
  util::Bytes msg = to_bytes("onion packet payload");
  EXPECT_EQ(chacha20_xor(key, nonce, 0, chacha20_xor(key, nonce, 0, msg)), msg);
}

TEST(ChaCha20, DifferentNoncesProduceDifferentStreams) {
  util::Bytes key(kChaChaKeySize, 0x11);
  util::Bytes n1(kChaChaNonceSize, 0);
  util::Bytes n2(kChaChaNonceSize, 0);
  n2[0] = 1;
  util::Bytes zeros(64, 0);
  EXPECT_NE(chacha20_xor(key, n1, 0, zeros), chacha20_xor(key, n2, 0, zeros));
}

TEST(ChaCha20, CounterContinuity) {
  // Encrypting 128 bytes at counter 0 equals two 64-byte calls at 0 and 1.
  util::Bytes key(kChaChaKeySize, 0x37);
  util::Bytes nonce(kChaChaNonceSize, 0x01);
  util::Bytes data(128, 0xab);
  util::Bytes whole = chacha20_xor(key, nonce, 0, data);
  util::Bytes first(data.begin(), data.begin() + 64);
  util::Bytes second(data.begin() + 64, data.end());
  util::Bytes part1 = chacha20_xor(key, nonce, 0, first);
  util::Bytes part2 = chacha20_xor(key, nonce, 1, second);
  util::append(part1, part2);
  EXPECT_EQ(whole, part1);
}

TEST(ChaCha20, RejectsBadKeyAndNonceSizes) {
  util::Bytes good_key(kChaChaKeySize, 0), good_nonce(kChaChaNonceSize, 0);
  EXPECT_THROW(chacha20_xor(util::Bytes(31, 0), good_nonce, 0, {}),
               std::invalid_argument);
  EXPECT_THROW(chacha20_xor(good_key, util::Bytes(8, 0), 0, {}),
               std::invalid_argument);
}

// chacha20_xor_into makes four blocks at a time and the last one to three
// one at a time. At every length up to 1100 bytes (over four batches and
// every tail), and from counters where the 32-bit wrap falls inside the
// first batch or the first tail block, it must equal XOR with chained
// chacha20_block output.
TEST(ChaCha20, MultiBlockMatchesBlockFunction) {
  constexpr std::size_t kMax = 1100;
  util::Bytes key(kChaChaKeySize), nonce(kChaChaNonceSize), data(kMax);
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(7 * i + 3);
  }
  for (std::size_t i = 0; i < nonce.size(); ++i) {
    nonce[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  for (std::uint32_t counter : {0u, 1u, 0xfffffffdu, 0xffffffffu}) {
    util::Bytes expected(kMax);
    for (std::size_t off = 0; off < kMax; off += 64) {
      const auto block = chacha20_block(
          key, nonce, counter + static_cast<std::uint32_t>(off / 64));
      for (std::size_t j = 0; j < 64 && off + j < kMax; ++j) {
        expected[off + j] = data[off + j] ^ block[j];
      }
    }
    util::Bytes out;
    for (std::size_t len = 0; len <= kMax; ++len) {
      chacha20_xor_into(key, nonce, counter,
                        std::span<const std::uint8_t>(data).first(len), out);
      ASSERT_EQ(out, util::Bytes(expected.begin(),
                                 expected.begin() + static_cast<long>(len)))
          << "counter " << counter << ", length " << len;
    }
  }
}

TEST(ChaCha20, EmptyInput) {
  util::Bytes key(kChaChaKeySize, 0), nonce(kChaChaNonceSize, 0);
  EXPECT_TRUE(chacha20_xor(key, nonce, 0, {}).empty());
}

}  // namespace
}  // namespace odtn::crypto
