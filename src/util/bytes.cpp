#include "util/bytes.hpp"

#include <stdexcept>

namespace odtn::util {

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string to_hex(const Bytes& data) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0x0f]);
  }
  return out;
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) {
    throw std::invalid_argument("from_hex: odd-length input");
  }
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_nibble(hex[i]);
    int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      throw std::invalid_argument("from_hex: non-hex character");
    }
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

Bytes to_bytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string to_string(const Bytes& data) {
  return std::string(data.begin(), data.end());
}

bool ct_equal_span(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b) {
  if (a.size() != b.size()) return false;
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

void secure_zero(Bytes& data) {
  volatile std::uint8_t* p = data.data();
  for (std::size_t i = 0; i < data.size(); ++i) p[i] = 0;
}

void append(Bytes& dst, const Bytes& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

void put_u32le(Bytes& dst, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) dst.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64le(Bytes& dst, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) dst.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32le(const Bytes& src, std::size_t offset) {
  if (offset + 4 > src.size()) throw std::out_of_range("get_u32le");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{src[offset + i]} << (8 * i);
  return v;
}

std::uint64_t get_u64le(const Bytes& src, std::size_t offset) {
  if (offset + 8 > src.size()) throw std::out_of_range("get_u64le");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{src[offset + i]} << (8 * i);
  return v;
}

}  // namespace odtn::util
