// Poly1305 (RFC 8439 section 2.5) in three limbs of 44, 44 and 42 bits
// with 64x64 -> 128-bit products, after poly1305-donna-64 (public domain):
// a block costs nine multiplications. poly1305_aead_tag streams the AEAD's
// MAC input (aad, ciphertext, their zero padding and lengths) block by
// block from the caller's spans, so no buffer ever holds it whole.
#include "crypto/poly1305.hpp"

#include <cstring>
#include <stdexcept>

namespace odtn::crypto {

namespace {

using u128 = __uint128_t;

constexpr std::uint64_t kMask44 = (1ULL << 44) - 1;
constexpr std::uint64_t kMask42 = (1ULL << 42) - 1;
// 2^128, the bit a full 16-byte block carries above its bytes: bit 40 of
// the top limb.
constexpr std::uint64_t kHibit = 1ULL << 40;

// Written out, not looped, so that GCC folds it into one 64-bit load.
inline std::uint64_t load_u64le(const std::uint8_t* p) {
  return std::uint64_t{p[0]} | (std::uint64_t{p[1]} << 8) |
         (std::uint64_t{p[2]} << 16) | (std::uint64_t{p[3]} << 24) |
         (std::uint64_t{p[4]} << 32) | (std::uint64_t{p[5]} << 40) |
         (std::uint64_t{p[6]} << 48) | (std::uint64_t{p[7]} << 56);
}

inline void store_u64le(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// The accumulator h and the key r mod 2^130 - 5. 2^130 = 5 mod p, so a
// product limb at 2^132 folds back into limb 0 times 20: s1 = 20 r1,
// s2 = 20 r2.
class Poly1305 {
 public:
  explicit Poly1305(const std::uint8_t* key) {
    // Clamp r per RFC 8439 sec 2.5.
    const std::uint64_t t0 = load_u64le(key), t1 = load_u64le(key + 8);
    r0_ = t0 & 0xffc0fffffffULL;
    r1_ = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffffULL;
    r2_ = (t1 >> 24) & 0x00ffffffc0fULL;
    s1_ = r1_ * 20;
    s2_ = r2_ * 20;
    pad0_ = load_u64le(key + 16);
    pad1_ = load_u64le(key + 24);
  }

  // Absorbs the whole 16-byte blocks of m[0, n); `hibit` is kHibit for a
  // full block and 0 for a last block already terminated with a 1 byte.
  void blocks(const std::uint8_t* m, std::size_t n, std::uint64_t hibit) {
    std::uint64_t h0 = h0_, h1 = h1_, h2 = h2_;
    for (; n >= 16; m += 16, n -= 16) {
      const std::uint64_t t0 = load_u64le(m), t1 = load_u64le(m + 8);
      h0 += t0 & kMask44;
      h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
      h2 += ((t1 >> 24) & kMask42) | hibit;

      // h *= r, then a partial reduction.
      const u128 d0 = (u128)h0 * r0_ + (u128)h1 * s2_ + (u128)h2 * s1_;
      u128 d1 = (u128)h0 * r1_ + (u128)h1 * r0_ + (u128)h2 * s2_;
      u128 d2 = (u128)h0 * r2_ + (u128)h1 * r1_ + (u128)h2 * r0_;
      std::uint64_t c = (std::uint64_t)(d0 >> 44);
      h0 = (std::uint64_t)d0 & kMask44;
      d1 += c; c = (std::uint64_t)(d1 >> 44); h1 = (std::uint64_t)d1 & kMask44;
      d2 += c; c = (std::uint64_t)(d2 >> 42); h2 = (std::uint64_t)d2 & kMask42;
      h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
      h1 += c;
    }
    h0_ = h0; h1_ = h1; h2_ = h2;
  }

  // Absorbs `data`: its whole blocks, then the rest zero-padded to a
  // block. With `pad16` (the AEAD's padding) that block is a full one;
  // otherwise the rest ends the message and is terminated by a 1 byte
  // first (RFC 8439 section 2.5.1).
  void absorb(std::span<const std::uint8_t> data, bool pad16) {
    const std::size_t whole = data.size() & ~std::size_t{15};
    blocks(data.data(), whole, kHibit);
    if (whole < data.size()) {
      std::uint8_t last[16] = {0};
      std::memcpy(last, data.data() + whole, data.size() - whole);
      if (!pad16) last[data.size() - whole] = 1;
      blocks(last, 16, pad16 ? kHibit : 0);
    }
  }

  std::array<std::uint8_t, kPolyTagSize> finish() const {
    std::uint64_t h0 = h0_, h1 = h1_, h2 = h2_;

    // Full carry.
    std::uint64_t c;
    c = h1 >> 44; h1 &= kMask44;
    h2 += c; c = h2 >> 42; h2 &= kMask42;
    h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
    h1 += c; c = h1 >> 44; h1 &= kMask44;
    h2 += c; c = h2 >> 42; h2 &= kMask42;
    h0 += c * 5; c = h0 >> 44; h0 &= kMask44;
    h1 += c;

    // Compute h + -p.
    std::uint64_t g0 = h0 + 5; c = g0 >> 44; g0 &= kMask44;
    std::uint64_t g1 = h1 + c; c = g1 >> 44; g1 &= kMask44;
    std::uint64_t g2 = h2 + c - (1ULL << 42);

    // Select h if h < p, else h - p.
    c = (g2 >> 63) - 1;
    g0 &= c; g1 &= c; g2 &= c;
    c = ~c;
    h0 = (h0 & c) | g0;
    h1 = (h1 & c) | g1;
    h2 = (h2 & c) | g2;

    // tag = (h + pad) % 2^128
    h0 += pad0_ & kMask44; c = h0 >> 44; h0 &= kMask44;
    h1 += (((pad0_ >> 44) | (pad1_ << 20)) & kMask44) + c;
    c = h1 >> 44; h1 &= kMask44;
    h2 += ((pad1_ >> 24) & kMask42) + c; h2 &= kMask42;

    std::array<std::uint8_t, kPolyTagSize> tag;
    store_u64le(tag.data(), h0 | (h1 << 44));
    store_u64le(tag.data() + 8, (h1 >> 20) | (h2 << 24));
    return tag;
  }

 private:
  std::uint64_t r0_, r1_, r2_, s1_, s2_;
  std::uint64_t h0_ = 0, h1_ = 0, h2_ = 0;
  std::uint64_t pad0_, pad1_;
};

}  // namespace

util::Bytes poly1305_tag(const util::Bytes& key, const util::Bytes& data) {
  if (key.size() != kPolyKeySize) {
    throw std::invalid_argument("poly1305: key must be 32 bytes");
  }
  Poly1305 mac(key.data());
  mac.absorb(data, /*pad16=*/false);
  const auto tag = mac.finish();
  return util::Bytes(tag.begin(), tag.end());
}

std::array<std::uint8_t, kPolyTagSize> poly1305_aead_tag(
    std::span<const std::uint8_t, kPolyKeySize> key,
    std::span<const std::uint8_t> aad,
    std::span<const std::uint8_t> ciphertext) {
  Poly1305 mac(key.data());
  mac.absorb(aad, /*pad16=*/true);
  mac.absorb(ciphertext, /*pad16=*/true);
  std::uint8_t lengths[16];
  store_u64le(lengths, aad.size());
  store_u64le(lengths + 8, ciphertext.size());
  mac.blocks(lengths, 16, kHibit);
  return mac.finish();
}

}  // namespace odtn::crypto
