#include "crypto/x25519.hpp"

#include <cstring>
#include <stdexcept>

namespace odtn::crypto {

namespace {

// Field element mod p = 2^255 - 19, as 5 limbs of 51 bits.
struct Fe {
  std::uint64_t v[5];
};

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;

using u128 = __uint128_t;

// The field helpers are forced inline: GCC at -O2 otherwise keeps some of
// them out of line in the ladder, which costs ~5% per scalar multiplication.

[[gnu::always_inline]] inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}

// a - b with a bias of 2p added so limbs stay non-negative.
[[gnu::always_inline]] inline Fe fe_sub(const Fe& a, const Fe& b) {
  Fe r;
  r.v[0] = a.v[0] + 0xfffffffffffdaULL - b.v[0];
  r.v[1] = a.v[1] + 0xffffffffffffeULL - b.v[1];
  r.v[2] = a.v[2] + 0xffffffffffffeULL - b.v[2];
  r.v[3] = a.v[3] + 0xffffffffffffeULL - b.v[3];
  r.v[4] = a.v[4] + 0xffffffffffffeULL - b.v[4];
  return r;
}

// Carries 128-bit limb sums back into 51-bit limbs; the carry out of the
// top limb wraps around times 19 (2^255 = 19 mod p).
[[gnu::always_inline]] inline Fe fe_carry(u128 t0, u128 t1, u128 t2, u128 t3,
                                          u128 t4) {
  Fe r;
  std::uint64_t c;
  r.v[0] = (std::uint64_t)t0 & kMask51; c = (std::uint64_t)(t0 >> 51);
  t1 += c;
  r.v[1] = (std::uint64_t)t1 & kMask51; c = (std::uint64_t)(t1 >> 51);
  t2 += c;
  r.v[2] = (std::uint64_t)t2 & kMask51; c = (std::uint64_t)(t2 >> 51);
  t3 += c;
  r.v[3] = (std::uint64_t)t3 & kMask51; c = (std::uint64_t)(t3 >> 51);
  t4 += c;
  r.v[4] = (std::uint64_t)t4 & kMask51; c = (std::uint64_t)(t4 >> 51);
  r.v[0] += c * 19;
  c = r.v[0] >> 51; r.v[0] &= kMask51;
  r.v[1] += c;
  return r;
}

[[gnu::always_inline]] inline Fe fe_mul(const Fe& a, const Fe& b) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19,
                      b4_19 = b4 * 19;
  return fe_carry(
      (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 + (u128)a3 * b2_19 +
          (u128)a4 * b1_19,
      (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 + (u128)a3 * b3_19 +
          (u128)a4 * b2_19,
      (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 + (u128)a3 * b4_19 +
          (u128)a4 * b3_19,
      (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 + (u128)a3 * b0 +
          (u128)a4 * b4_19,
      (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 + (u128)a3 * b1 +
          (u128)a4 * b0);
}

// a^2 in 15 products instead of fe_mul's 25: the cross terms a_i*a_j
// (i != j) appear twice, so they are taken once against a doubled limb,
// with the x19 reduction folded into the precomputed limbs.
[[gnu::always_inline]] inline Fe fe_sq(const Fe& a) {
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t d0 = a0 * 2, d1 = a1 * 2, d2_19 = a2 * 2 * 19,
                      a4_19 = a4 * 19, d4_19 = a4_19 * 2;
  return fe_carry((u128)a0 * a0 + (u128)d4_19 * a1 + (u128)d2_19 * a3,
                  (u128)d0 * a1 + (u128)d4_19 * a2 + (u128)a3 * (a3 * 19),
                  (u128)d0 * a2 + (u128)a1 * a1 + (u128)d4_19 * a3,
                  (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19,
                  (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2);
}

// a^(2^n).
[[gnu::always_inline]] inline Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

[[gnu::always_inline]] inline Fe fe_mul_small(const Fe& a, std::uint64_t s) {
  return fe_carry((u128)a.v[0] * s, (u128)a.v[1] * s, (u128)a.v[2] * s,
                  (u128)a.v[3] * s, (u128)a.v[4] * s);
}

// Constant-time conditional swap.
[[gnu::always_inline]] inline void fe_cswap(Fe& a, Fe& b, std::uint64_t swap) {
  std::uint64_t mask = 0 - swap;
  for (int i = 0; i < 5; ++i) {
    std::uint64_t x = mask & (a.v[i] ^ b.v[i]);
    a.v[i] ^= x;
    b.v[i] ^= x;
  }
}

// a^(p-2) = a^-1 mod p.
Fe fe_invert(const Fe& a) {
  // Addition chain from curve25519 reference implementations.
  Fe z2 = fe_sq(a);                                 // 2
  Fe z9 = fe_mul(fe_sq_n(z2, 2), a);                // 9
  Fe z11 = fe_mul(z9, z2);                          // 11
  Fe z_5_0 = fe_mul(fe_sq(z11), z9);                // 2^5 - 2^0
  Fe z_10_0 = fe_mul(fe_sq_n(z_5_0, 5), z_5_0);     // 2^10 - 2^0
  Fe z_20_0 = fe_mul(fe_sq_n(z_10_0, 10), z_10_0);  // 2^20 - 2^0
  Fe z_40_0 = fe_mul(fe_sq_n(z_20_0, 20), z_20_0);  // 2^40 - 2^0
  Fe z_50_0 = fe_mul(fe_sq_n(z_40_0, 10), z_10_0);  // 2^50 - 2^0
  Fe z_100_0 = fe_mul(fe_sq_n(z_50_0, 50), z_50_0);     // 2^100 - 2^0
  Fe z_200_0 = fe_mul(fe_sq_n(z_100_0, 100), z_100_0);  // 2^200 - 2^0
  Fe z_250_0 = fe_mul(fe_sq_n(z_200_0, 50), z_50_0);    // 2^250 - 2^0
  return fe_mul(fe_sq_n(z_250_0, 5), z11);              // 2^255 - 21
}

Fe fe_from_bytes(const std::uint8_t* s) {
  auto load64 = [](const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    return v;
  };
  Fe r;
  r.v[0] = load64(s) & kMask51;
  r.v[1] = (load64(s + 6) >> 3) & kMask51;
  r.v[2] = (load64(s + 12) >> 6) & kMask51;
  r.v[3] = (load64(s + 19) >> 1) & kMask51;
  // Top bit of the point encoding is masked per RFC 7748.
  r.v[4] = (load64(s + 24) >> 12) & kMask51;
  return r;
}

void fe_to_bytes(std::uint8_t* s, const Fe& a) {
  // Carry fully, then reduce mod p canonically.
  Fe t = a;
  std::uint64_t c;
  for (int pass = 0; pass < 3; ++pass) {
    c = t.v[0] >> 51; t.v[0] &= kMask51; t.v[1] += c;
    c = t.v[1] >> 51; t.v[1] &= kMask51; t.v[2] += c;
    c = t.v[2] >> 51; t.v[2] &= kMask51; t.v[3] += c;
    c = t.v[3] >> 51; t.v[3] &= kMask51; t.v[4] += c;
    c = t.v[4] >> 51; t.v[4] &= kMask51; t.v[0] += c * 19;
  }
  // Now t < 2^255 + small; subtract p if t >= p (constant time).
  std::uint64_t q = (t.v[0] + 19) >> 51;
  q = (t.v[1] + q) >> 51;
  q = (t.v[2] + q) >> 51;
  q = (t.v[3] + q) >> 51;
  q = (t.v[4] + q) >> 51;
  t.v[0] += 19 * q;
  c = t.v[0] >> 51; t.v[0] &= kMask51; t.v[1] += c;
  c = t.v[1] >> 51; t.v[1] &= kMask51; t.v[2] += c;
  c = t.v[2] >> 51; t.v[2] &= kMask51; t.v[3] += c;
  c = t.v[3] >> 51; t.v[3] &= kMask51; t.v[4] += c;
  t.v[4] &= kMask51;

  std::uint64_t out0 = t.v[0] | (t.v[1] << 51);
  std::uint64_t out1 = (t.v[1] >> 13) | (t.v[2] << 38);
  std::uint64_t out2 = (t.v[2] >> 26) | (t.v[3] << 25);
  std::uint64_t out3 = (t.v[3] >> 39) | (t.v[4] << 12);
  auto store64 = [](std::uint8_t* p, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  };
  store64(s, out0);
  store64(s + 8, out1);
  store64(s + 16, out2);
  store64(s + 24, out3);
}

// The Montgomery ladder (RFC 7748 section 5) computing scalar * u into out.
// `mul_x1(f)` returns u * f; the base point (u = 9) multiplies by a small
// constant instead of a full field element. Branch-free in the scalar.
template <typename MulX1>
void ladder(std::uint8_t* out, const std::uint8_t* scalar, const Fe& x1,
            MulX1 mul_x1) {
  std::uint8_t e[32];
  std::memcpy(e, scalar, 32);
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;

  Fe x2{{1, 0, 0, 0, 0}}, z2{{0, 0, 0, 0, 0}};
  Fe x3 = x1, z3{{1, 0, 0, 0, 0}};
  std::uint64_t swap = 0;

  for (int t = 254; t >= 0; --t) {
    std::uint64_t k_t = (e[t >> 3] >> (t & 7)) & 1;
    swap ^= k_t;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = k_t;

    Fe a = fe_add(x2, z2);
    Fe aa = fe_sq(a);
    Fe b = fe_sub(x2, z2);
    Fe bb = fe_sq(b);
    Fe e_ = fe_sub(aa, bb);
    Fe c = fe_add(x3, z3);
    Fe d = fe_sub(x3, z3);
    Fe da = fe_mul(d, a);
    Fe cb = fe_mul(c, b);
    x3 = fe_sq(fe_add(da, cb));
    z3 = mul_x1(fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e_, fe_add(aa, fe_mul_small(e_, 121665)));
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);

  fe_to_bytes(out, fe_mul(x2, fe_invert(z2)));
}

}  // namespace

util::Bytes x25519(const util::Bytes& scalar, const util::Bytes& point) {
  if (scalar.size() != kX25519KeySize || point.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  const Fe x1 = fe_from_bytes(point.data());
  util::Bytes result(kX25519KeySize);
  ladder(result.data(), scalar.data(), x1,
         [&x1](const Fe& f) { return fe_mul(x1, f); });
  return result;
}

util::Bytes x25519_base(const util::Bytes& scalar) {
  if (scalar.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  util::Bytes result(kX25519KeySize);
  ladder(result.data(), scalar.data(), Fe{{9, 0, 0, 0, 0}},
         [](const Fe& f) { return fe_mul_small(f, 9); });
  return result;
}

KeyPair generate_keypair(util::Rng& rng) {
  KeyPair kp;
  kp.private_key.resize(kX25519KeySize);
  for (auto& b : kp.private_key) {
    b = static_cast<std::uint8_t>(rng.below(256));
  }
  kp.public_key = x25519_base(kp.private_key);
  return kp;
}

util::Bytes shared_secret(const util::Bytes& my_private,
                          const util::Bytes& their_public) {
  return x25519(my_private, their_public);
}

}  // namespace odtn::crypto
