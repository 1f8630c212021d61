#include "crypto/hmac.hpp"

#include <gtest/gtest.h>

#include <array>

#include "util/bytes.hpp"

namespace odtn::crypto {
namespace {

using util::from_hex;
using util::to_bytes;
using util::to_hex;

// HKDF's one-shot forms, written over the keyed, caller-storage API, so the
// RFC 5869 vectors below run the code KeyManager runs.
util::Bytes hkdf_extract(const util::Bytes& salt, const util::Bytes& ikm) {
  util::Bytes prk(32);
  HmacSha256(salt).tag({ikm}, std::span<std::uint8_t, 32>(prk));
  return prk;
}

util::Bytes hkdf_expand(const util::Bytes& prk, const util::Bytes& info,
                        std::size_t length) {
  util::Bytes okm(length);
  hkdf_expand_into(HmacSha256(prk), info, okm);
  return okm;
}

util::Bytes hkdf(const util::Bytes& ikm, const util::Bytes& salt,
                 const util::Bytes& info, std::size_t length) {
  util::Bytes okm(length);
  hkdf_expand_into(hkdf_extract_key(salt, ikm), info, okm);
  return okm;
}

// RFC 4231 test cases for HMAC-SHA-256.
TEST(HmacSha256, Rfc4231Case1) {
  util::Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  EXPECT_EQ(
      to_hex(hmac_sha256(to_bytes("Jefe"), to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  util::Bytes key(20, 0xaa);
  util::Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case6LongKey) {
  util::Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

std::string tag_hex(const HmacSha256& state,
                    std::initializer_list<std::span<const std::uint8_t>> parts) {
  std::array<std::uint8_t, 32> out;
  state.tag(parts, out);
  return to_hex(util::Bytes(out.begin(), out.end()));
}

// The keyed state against RFC 4231 cases 1, 2, 3 and 6 (a key longer than
// a block), with each message whole and split in two parts.
TEST(HmacSha256, KeyedStateMatchesRfc4231) {
  struct Case {
    util::Bytes key, data;
    const char* tag;
  };
  const Case cases[] = {
      {util::Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {util::Bytes(20, 0xaa), util::Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {util::Bytes(131, 0xaa),
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"}};
  for (const Case& c : cases) {
    const HmacSha256 state(c.key);
    EXPECT_EQ(tag_hex(state, {c.data}), c.tag);
    const std::span<const std::uint8_t> data(c.data);
    EXPECT_EQ(tag_hex(state, {data.first(5), data.subspan(5)}), c.tag);
  }
}

// One keyed state reused over 100 messages (0 to 990 bytes, across block
// and padding boundaries) gives what fresh hmac_sha256 calls give.
TEST(HmacSha256, ReusedKeyedStateMatchesFreshCalls) {
  const util::Bytes key = to_bytes("a key reused for every message");
  const HmacSha256 state(key);
  for (std::size_t i = 0; i < 100; ++i) {
    util::Bytes msg(10 * i);
    for (std::size_t j = 0; j < msg.size(); ++j) {
      msg[j] = static_cast<std::uint8_t>(i + j);
    }
    EXPECT_EQ(tag_hex(state, {msg}), to_hex(hmac_sha256(key, msg)))
        << "message " << i;
  }
}

// RFC 5869 test cases for HKDF-SHA256.
TEST(Hkdf, Rfc5869Case1) {
  util::Bytes ikm(22, 0x0b);
  util::Bytes salt = from_hex("000102030405060708090a0b0c");
  util::Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  util::Bytes prk = hkdf_extract(salt, ikm);
  EXPECT_EQ(to_hex(prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
  util::Bytes okm = hkdf_expand(prk, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3ZeroLengthSaltInfo) {
  util::Bytes ikm(22, 0x0b);
  util::Bytes okm = hkdf(ikm, {}, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// The keyed extract and the caller-storage expand against RFC 5869 cases 1
// and 3 (case 3: empty salt, so the precomputed zero-salt state, and empty
// info).
TEST(Hkdf, CallerStorageMatchesRfc5869) {
  const util::Bytes ikm(22, 0x0b);
  std::array<std::uint8_t, 42> okm;
  hkdf_expand_into(hkdf_extract_key(from_hex("000102030405060708090a0b0c"),
                                    ikm),
                   from_hex("f0f1f2f3f4f5f6f7f8f9"), okm);
  EXPECT_EQ(to_hex(util::Bytes(okm.begin(), okm.end())),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
  hkdf_expand_into(hkdf_extract_key({}, ikm), {}, okm);
  EXPECT_EQ(to_hex(util::Bytes(okm.begin(), okm.end())),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
  util::Bytes too_long(255 * 32 + 1);
  EXPECT_THROW(hkdf_expand_into(hkdf_extract_key({}, ikm), {}, too_long),
               std::invalid_argument);
}

TEST(Hkdf, DistinctInfoGivesDistinctKeys) {
  util::Bytes ikm = to_bytes("master secret");
  EXPECT_NE(hkdf(ikm, {}, to_bytes("group-0"), 32),
            hkdf(ikm, {}, to_bytes("group-1"), 32));
}

TEST(Hkdf, ExpandLengthLimit) {
  util::Bytes prk(32, 1);
  EXPECT_NO_THROW(hkdf_expand(prk, {}, 255 * 32));
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
}

TEST(Hkdf, RequestedLengthHonored) {
  util::Bytes prk(32, 7);
  for (std::size_t len : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(hkdf_expand(prk, {}, len).size(), len);
  }
}

}  // namespace
}  // namespace odtn::crypto
