// FNV-1a (64-bit) for the tests' byte-level pins. Integers are fed
// little-endian and doubles by their bits, so a digest is host-independent:
// a refactor that leaves every fed value unchanged leaves the digest
// unchanged.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace odtn::test_support {

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
  /// Length, then the bytes.
  void str(const std::string& s) {
    u64(s.size());
    for (char c : s) byte(static_cast<unsigned char>(c));
  }
  /// Length, then each id as a u64.
  template <typename T>
  void ids(const std::vector<T>& v) {
    u64(v.size());
    for (T x : v) u64(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace odtn::test_support
