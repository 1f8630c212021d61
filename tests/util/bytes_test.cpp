#include "util/bytes.hpp"

#include <gtest/gtest.h>

namespace odtn::util {
namespace {

TEST(Bytes, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xde, 0xad, 0xbe, 0xef, 0xff};
  EXPECT_EQ(to_hex(data), "0001deadbeefff");
  EXPECT_EQ(from_hex("0001deadbeefff"), data);
  EXPECT_EQ(from_hex("0001DEADBEEFFF"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, FromHexRejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), std::invalid_argument);
  EXPECT_THROW(from_hex("zz"), std::invalid_argument);
  EXPECT_THROW(from_hex("0g"), std::invalid_argument);
}

TEST(Bytes, StringRoundTrip) {
  EXPECT_EQ(to_string(to_bytes("hello")), "hello");
  EXPECT_EQ(to_bytes("").size(), 0u);
}

TEST(Bytes, CtEqual) {
  const Bytes a = {1, 2, 3}, b = {1, 2, 4}, prefix = {1, 2}, empty;
  EXPECT_TRUE(ct_equal_span(a, a));
  EXPECT_FALSE(ct_equal_span(a, b));
  EXPECT_FALSE(ct_equal_span(a, prefix));
  EXPECT_TRUE(ct_equal_span(empty, empty));
}

TEST(Bytes, SecureZero) {
  Bytes b = {1, 2, 3, 4};
  secure_zero(b);
  EXPECT_EQ(b, Bytes(4, 0));
}

TEST(Bytes, Append) {
  Bytes a = {1, 2};
  append(a, {3, 4});
  EXPECT_EQ(a, (Bytes{1, 2, 3, 4}));
  append(a, {});
  EXPECT_EQ(a.size(), 4u);
}

TEST(Bytes, U32LeRoundTrip) {
  Bytes b;
  put_u32le(b, 0x12345678u);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x78);
  EXPECT_EQ(get_u32le(b, 0), 0x12345678u);
}

TEST(Bytes, U64LeRoundTrip) {
  Bytes b = {0xff};  // offset test
  put_u64le(b, 0x0123456789abcdefULL);
  EXPECT_EQ(get_u64le(b, 1), 0x0123456789abcdefULL);
}

TEST(Bytes, GetOutOfRangeThrows) {
  Bytes b(3, 0);
  EXPECT_THROW(get_u32le(b, 0), std::out_of_range);
  EXPECT_THROW(get_u64le(b, 0), std::out_of_range);
}

}  // namespace
}  // namespace odtn::util
