#include "crypto/poly1305.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/bytes.hpp"

namespace odtn::crypto {
namespace {

using util::from_hex;
using util::to_bytes;
using util::to_hex;

// RFC 8439 section 2.5.2 test vector.
TEST(Poly1305, Rfc8439Vector) {
  util::Bytes key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  util::Bytes msg = to_bytes("Cryptographic Forum Research Group");
  EXPECT_EQ(to_hex(poly1305_tag(key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

// RFC 8439 Appendix A.3 test vector #1: all-zero key and message.
TEST(Poly1305, ZeroKeyZeroMessage) {
  util::Bytes key(32, 0);
  util::Bytes msg(64, 0);
  EXPECT_EQ(to_hex(poly1305_tag(key, msg)),
            "00000000000000000000000000000000");
}

// RFC 8439 Appendix A.3 test vector #2.
TEST(Poly1305, AppendixA3Vector2) {
  util::Bytes key = from_hex(
      "0000000000000000000000000000000036e5f6b5c5e06070f0efca96227a863e");
  util::Bytes msg = to_bytes(
      "Any submission to the IETF intended by the Contributor for "
      "publication as all or part of an IETF Internet-Draft or RFC and "
      "any statement made within the context of an IETF activity is "
      "considered an \"IETF Contribution\". Such statements include oral "
      "statements in IETF sessions, as well as written and electronic "
      "communications made at any time or place, which are addressed to");
  EXPECT_EQ(to_hex(poly1305_tag(key, msg)),
            "36e5f6b5c5e06070f0efca96227a863e");
}

// RFC 8439 Appendix A.3 test vector #3 (r part of key, s zero).
TEST(Poly1305, AppendixA3Vector3) {
  util::Bytes key = from_hex(
      "36e5f6b5c5e06070f0efca96227a863e00000000000000000000000000000000");
  util::Bytes msg = to_bytes(
      "Any submission to the IETF intended by the Contributor for "
      "publication as all or part of an IETF Internet-Draft or RFC and "
      "any statement made within the context of an IETF activity is "
      "considered an \"IETF Contribution\". Such statements include oral "
      "statements in IETF sessions, as well as written and electronic "
      "communications made at any time or place, which are addressed to");
  EXPECT_EQ(to_hex(poly1305_tag(key, msg)),
            "f3477e7cd95417af89a6b8794c310cf0");
}

// Appendix A.3 #7-style edge case: h wraps 2^130 - 5.
TEST(Poly1305, WrapAroundEdgeCase) {
  util::Bytes key = from_hex(
      "0100000000000000000000000000000000000000000000000000000000000000");
  util::Bytes msg = from_hex(
      "ffffffffffffffffffffffffffffffff"
      "f0ffffffffffffffffffffffffffffff"
      "11000000000000000000000000000000");
  EXPECT_EQ(to_hex(poly1305_tag(key, msg)),
            "05000000000000000000000000000000");
}

// RFC 8439 Appendix A.3 #5, #6 and #8-#11: the accumulator lands on or
// just past 2^130 - 5, or a limb's carry is exactly at its edge.
TEST(Poly1305, Rfc8439AppendixA3ReductionEdges) {
  const std::string zeros(32, '0'), ffs(32, 'f');
  const std::string r1 = "01" + std::string(30, '0'),
                    r2 = "02" + std::string(30, '0'),
                    r10 = "01000000000000000400000000000000";
  struct Case {
    std::string key, msg;
    const char* tag;
  };
  const Case cases[] = {
      {r2 + zeros, ffs, "03000000000000000000000000000000"},
      {r2 + ffs, r2, "03000000000000000000000000000000"},
      {r1 + zeros,
       ffs + "fbfefefefefefefefefefefefefefefe"
             "01010101010101010101010101010101",
       "00000000000000000000000000000000"},
      {r2 + zeros, "fd" + std::string(30, 'f'),
       "faffffffffffffffffffffffffffffff"},
      {r10 + zeros,
       "e33594d7505e43b90000000000000000"
       "3394d7505e4379cd0100000000000000"
       "00000000000000000000000000000000"
       "01000000000000000000000000000000",
       "14000000000000005500000000000000"},
      {r10 + zeros,
       "e33594d7505e43b90000000000000000"
       "3394d7505e4379cd0100000000000000"
       "00000000000000000000000000000000",
       "13000000000000000000000000000000"}};
  for (const Case& c : cases) {
    EXPECT_EQ(to_hex(poly1305_tag(from_hex(c.key), from_hex(c.msg))), c.tag)
        << c.msg;
  }
}

TEST(Poly1305, TagChangesWithMessage) {
  util::Bytes key(32, 0x42);
  EXPECT_NE(poly1305_tag(key, to_bytes("aaa")), poly1305_tag(key, to_bytes("aab")));
}

TEST(Poly1305, NonBlockAlignedLengths) {
  util::Bytes key = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  // Sanity: all lengths run without UB and produce 16-byte tags.
  for (std::size_t len = 0; len < 48; ++len) {
    util::Bytes msg(len, static_cast<std::uint8_t>(len));
    EXPECT_EQ(poly1305_tag(key, msg).size(), kPolyTagSize);
  }
}

TEST(Poly1305, RejectsBadKeySize) {
  EXPECT_THROW(poly1305_tag(util::Bytes(16, 0), {}), std::invalid_argument);
}

}  // namespace
}  // namespace odtn::crypto
