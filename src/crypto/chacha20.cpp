#include "crypto/chacha20.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace odtn::crypto {

namespace {

// The batch stores each lane's words with one 16-byte copy, which is the
// RFC's little-endian serialization only on a little-endian target.
static_assert(std::endian::native == std::endian::little,
              "the four-block ChaCha20 batch assumes little-endian words");

// Four 32-bit lanes; lane i carries one state word of block counter + i.
using U32x4 = std::uint32_t __attribute__((vector_size(16)));
using U8x16 = std::uint8_t __attribute__((vector_size(16)));

inline std::uint32_t rotl(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline U32x4 rotl(U32x4 x, int n) { return (x << n) | (x >> (32 - n)); }

template <typename W>
inline void quarter_round(W& a, W& b, W& c, W& d) {
  a += b; d ^= a; d = rotl(d, 16);
  c += d; b ^= c; b = rotl(b, 12);
  a += b; d ^= a; d = rotl(d, 8);
  c += d; b ^= c; b = rotl(b, 7);
}

// The 20 rounds (10 column + diagonal pairs), on scalars or on lanes.
template <typename W>
inline void rounds(W* x) {
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
}

inline std::uint32_t load_u32le(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | (std::uint32_t{p[1]} << 8) |
         (std::uint32_t{p[2]} << 16) | (std::uint32_t{p[3]} << 24);
}

// The RFC 8439 section 2.3 input state: constants, key, counter, nonce.
void init_state(std::uint32_t s[16], std::span<const std::uint8_t> key,
                std::span<const std::uint8_t> nonce, std::uint32_t counter) {
  if (key.size() != kChaChaKeySize) {
    throw std::invalid_argument("chacha20: key must be 32 bytes");
  }
  if (nonce.size() != kChaChaNonceSize) {
    throw std::invalid_argument("chacha20: nonce must be 12 bytes");
  }
  s[0] = 0x61707865;  // "expa"
  s[1] = 0x3320646e;  // "nd 3"
  s[2] = 0x79622d32;  // "2-by"
  s[3] = 0x6b206574;  // "te k"
  for (int i = 0; i < 8; ++i) s[4 + i] = load_u32le(key.data() + 4 * i);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[13 + i] = load_u32le(nonce.data() + 4 * i);
}

// Keystream block s[12] into out[0, 64).
void one_block(const std::uint32_t s[16], std::uint8_t* out) {
  std::uint32_t x[16];
  std::memcpy(x, s, sizeof(x));
  rounds(x);
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t v = x[i] + s[i];
    out[4 * i] = static_cast<std::uint8_t>(v);
    out[4 * i + 1] = static_cast<std::uint8_t>(v >> 8);
    out[4 * i + 2] = static_cast<std::uint8_t>(v >> 16);
    out[4 * i + 3] = static_cast<std::uint8_t>(v >> 24);
  }
}

// Keystream blocks s[12] .. s[12] + 3 (the counter wraps mod 2^32) into
// out[0, 256).
void four_blocks(const std::uint32_t s[16], std::uint8_t* out) {
  U32x4 in[16], x[16];
  for (int i = 0; i < 16; ++i) in[i] = U32x4{} + s[i];
  in[12] += U32x4{0, 1, 2, 3};
  std::memcpy(x, in, sizeof(x));
  rounds(x);
  // x[w] holds word w of the four blocks. Transpose each run of four words
  // so that one vector holds 16 consecutive bytes of one block.
  for (int w = 0; w < 16; w += 4) {
    const U32x4 a = x[w] + in[w], b = x[w + 1] + in[w + 1],
                c = x[w + 2] + in[w + 2], d = x[w + 3] + in[w + 3];
    const U32x4 ab_lo = __builtin_shufflevector(a, b, 0, 4, 1, 5);
    const U32x4 ab_hi = __builtin_shufflevector(a, b, 2, 6, 3, 7);
    const U32x4 cd_lo = __builtin_shufflevector(c, d, 0, 4, 1, 5);
    const U32x4 cd_hi = __builtin_shufflevector(c, d, 2, 6, 3, 7);
    const U32x4 block[4] = {__builtin_shufflevector(ab_lo, cd_lo, 0, 1, 4, 5),
                            __builtin_shufflevector(ab_lo, cd_lo, 2, 3, 6, 7),
                            __builtin_shufflevector(ab_hi, cd_hi, 0, 1, 4, 5),
                            __builtin_shufflevector(ab_hi, cd_hi, 2, 3, 6, 7)};
    for (int k = 0; k < 4; ++k) {
      std::memcpy(out + 64 * k + 4 * w, &block[k], 16);
    }
  }
}

// out[0, n) = in[0, n) ^ ks[0, n), 16 bytes at a time.
void xor_bytes(std::uint8_t* out, const std::uint8_t* in,
               const std::uint8_t* ks, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    U8x16 a, b;
    std::memcpy(&a, in + i, 16);
    std::memcpy(&b, ks + i, 16);
    a ^= b;
    std::memcpy(out + i, &a, 16);
  }
  for (; i < n; ++i) out[i] = in[i] ^ ks[i];
}

// out[0, n) = in[0, n) XOR the keystream from block s[12] on; s[12] ends
// past the last block used. Four blocks at a time while at least four are
// needed, then one at a time.
void xor_stream(std::uint32_t s[16], const std::uint8_t* in,
                std::uint8_t* out, std::size_t n) {
  std::uint8_t ks[256];
  while (n > 192) {
    four_blocks(s, ks);
    s[12] += 4;
    const std::size_t take = std::min<std::size_t>(n, 256);
    xor_bytes(out, in, ks, take);
    in += take;
    out += take;
    n -= take;
  }
  while (n > 0) {
    one_block(s, ks);
    s[12] += 1;
    const std::size_t take = std::min<std::size_t>(n, 64);
    xor_bytes(out, in, ks, take);
    in += take;
    out += take;
    n -= take;
  }
}

}  // namespace

std::array<std::uint8_t, 64> chacha20_block(std::span<const std::uint8_t> key,
                                            std::span<const std::uint8_t> nonce,
                                            std::uint32_t counter) {
  std::uint32_t s[16];
  init_state(s, key, nonce, counter);
  std::array<std::uint8_t, 64> out;
  one_block(s, out.data());
  return out;
}

util::Bytes chacha20_xor(const util::Bytes& key, const util::Bytes& nonce,
                         std::uint32_t initial_counter,
                         const util::Bytes& data) {
  util::Bytes out;
  chacha20_xor_into(key, nonce, initial_counter, data, out);
  return out;
}

void chacha20_xor_into(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> nonce,
                       std::uint32_t initial_counter,
                       std::span<const std::uint8_t> data, util::Bytes& out) {
  std::uint32_t s[16];
  init_state(s, key, nonce, initial_counter);
  out.resize(data.size());
  xor_stream(s, data.data(), out.data(), data.size());
}

}  // namespace odtn::crypto
