#include "crypto/x25519.hpp"

#include <array>
#include <cstring>
#include <stdexcept>

namespace odtn::crypto {

namespace {

// Field element mod p = 2^255 - 19, as 5 limbs of 51 bits.
struct Fe {
  std::uint64_t v[5];
};

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;

// Limb bounds. A "carried" value is one fe_carry returned (every fe_mul,
// fe_sq and fe_mul_small result): limbs below 2^51, limb 1 below
// 2^51 + 2^13. Two rules keep every formula below exact:
//  - fe_sub's subtrahend must be a carried value. Its bias is about 2^52
//    per limb, so the sum of two carried values can exceed it and wrap.
//  - fe_mul and fe_sq inputs must stay at or below 2^54 per limb. Then the
//    top column sum stays below 2^111, and its carry times 19 fits in 64
//    bits. A carried value, a sum of two, or a carried value minus one
//    or two carried values (each fe_sub adds about 2^52) all qualify.

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

// Copies `scalar` into e, clamped per RFC 7748 section 5.
void clamp(std::uint8_t* e, const std::uint8_t* scalar) {
  std::memcpy(e, scalar, 32);
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;
}

// The Montgomery ladder (RFC 7748 section 5) computing scalar * u into out.
// Branch-free in the scalar.
void ladder(std::uint8_t* out, const std::uint8_t* scalar, const Fe& x1) {
  std::uint8_t e[32];
  clamp(e, scalar);

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
    z3 = fe_mul(x1, fe_sq(fe_sub(da, cb)));
    x2 = fe_mul(aa, bb);
    z2 = fe_mul(e_, fe_add(aa, fe_mul_small(e_, 121665)));
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);

  fe_to_bytes(out, fe_mul(x2, fe_invert(z2)));
}

// ---- Fixed-base comb on the twisted Edwards form ---------------------------
//
// Curve25519 is birationally equivalent to edwards25519,
// -x^2 + y^2 = 1 + d x^2 y^2 with d = -121665/121666, under u = (1+y)/(1-y);
// the base point u = 9 maps to B with y = 4/5. So scalar * 9 is the u of
// [scalar]B, which a precomputed table of B's multiples computes in 64
// mixed additions and 4 doublings instead of 255 ladder steps (the Ed25519
// key-generation method of Bernstein et al., "High-speed high-security
// signatures", CHES 2011). Points are in extended coordinates (X:Y:Z:T),
// x = X/Z, y = Y/Z, T = XY/Z, with the a = -1 formulas of Hisil et al.,
// "Twisted Edwards curves revisited" (2008); all are complete.

struct GePoint {
  Fe X, Y, Z, T;
};

// An affine point as y + x, y - x and 2d*x*y (the Niels form): what a mixed
// addition needs from its second operand.
struct GeNiels {
  Fe ypx, ymx, xy2d;
};

constexpr Fe kZero{{0, 0, 0, 0, 0}}, kOne{{1, 0, 0, 0, 0}};
constexpr GePoint kGeIdentity{kZero, kOne, kOne, kZero};

// x of B, little endian (RFC 8032 section 5.1: the even root for y = 4/5).
constexpr std::uint8_t kBaseX[32] = {
    0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25,
    0x95, 0x60, 0xc7, 0x2c, 0x69, 0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2,
    0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21};

// Completes an addition from a = (Y1-X1)(Y2-X2), b = (Y1+X1)(Y2+X2),
// c = 2d*T1*T2 and d2z = 2*Z1*Z2 (add-2008-hwcd-3). a and c are carried.
[[gnu::always_inline]] inline GePoint ge_finish_add(const Fe& a, const Fe& b,
                                                    const Fe& c,
                                                    const Fe& d2z) {
  const Fe e = fe_sub(b, a), f = fe_sub(d2z, c), g = fe_add(d2z, c),
           h = fe_add(b, a);
  return {fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// p + q for an affine q (madd-2008-hwcd-3: Z2 = 1).
[[gnu::always_inline]] inline GePoint ge_madd(const GePoint& p,
                                              const GeNiels& q) {
  return ge_finish_add(fe_mul(fe_sub(p.Y, p.X), q.ymx),
                       fe_mul(fe_add(p.Y, p.X), q.ypx), fe_mul(p.T, q.xy2d),
                       fe_add(p.Z, p.Z));
}

// p + q for two extended points; only the table build needs it.
GePoint ge_add(const GePoint& p, const GePoint& q, const Fe& d2) {
  const Fe zz = fe_mul(p.Z, q.Z);
  return ge_finish_add(fe_mul(fe_sub(p.Y, p.X), fe_sub(q.Y, q.X)),
                       fe_mul(fe_add(p.Y, p.X), fe_add(q.Y, q.X)),
                       fe_mul(fe_mul(p.T, d2), q.T), fe_add(zz, zz));
}

// 2p (dbl-2008-hwcd with a = -1). Each subtraction takes a carried square
// (see the limb-bound rule), so 2Z^2 is subtracted as Z^2 twice.
GePoint ge_dbl(const GePoint& p) {
  const Fe xx = fe_sq(p.X), yy = fe_sq(p.Y), zz = fe_sq(p.Z),
           ss = fe_sq(fe_add(p.X, p.Y));
  const Fe e = fe_sub(fe_sub(ss, xx), yy);     // 2XY
  const Fe g = fe_sub(yy, xx);                 // -X^2 + Y^2
  const Fe f = fe_sub(fe_sub(g, zz), zz);      // g - 2Z^2
  const Fe h = fe_sub(fe_sub(kZero, xx), yy);  // -X^2 - Y^2
  return {fe_mul(e, f), fe_mul(g, h), fe_mul(f, g), fe_mul(e, h)};
}

// table[j][k-1] = [k * 256^j]B for k = 1..8, j = 0..31 (30 KB).
using BaseTable = std::array<std::array<GeNiels, 8>, 32>;

BaseTable build_base_table() {
  const Fe d = fe_mul(fe_sub(kZero, Fe{{121665, 0, 0, 0, 0}}),
                      fe_invert(Fe{{121666, 0, 0, 0, 0}}));
  const Fe d2 = fe_add(d, d);
  const Fe by = fe_mul(Fe{{4, 0, 0, 0, 0}}, fe_invert(Fe{{5, 0, 0, 0, 0}}));
  const Fe bx = fe_from_bytes(kBaseX);

  // Every entry in extended coordinates: row j starts at 256^j B.
  std::array<GePoint, 256> pts{};
  GePoint row{bx, by, kOne, fe_mul(bx, by)};
  for (std::size_t j = 0; j < 32; ++j) {
    pts[8 * j] = row;
    for (std::size_t k = 1; k < 8; ++k) {
      pts[8 * j + k] = ge_add(pts[8 * j + k - 1], row, d2);
    }
    for (int i = 0; i < 8; ++i) row = ge_dbl(row);
  }

  // One inversion for all 256 Z (Montgomery's trick): prefix[i] is
  // Z_0 * ... * Z_i, and at step i of the walk back inv is its inverse.
  std::array<Fe, 256> prefix{};
  prefix[0] = pts[0].Z;
  for (std::size_t i = 1; i < 256; ++i) {
    prefix[i] = fe_mul(prefix[i - 1], pts[i].Z);
  }
  Fe inv = fe_invert(prefix[255]);
  BaseTable table{};
  for (std::size_t i = 256; i-- > 0;) {
    const Fe z_inv = i == 0 ? inv : fe_mul(inv, prefix[i - 1]);  // Z_i^-1
    inv = fe_mul(inv, pts[i].Z);
    const Fe x = fe_mul(pts[i].X, z_inv), y = fe_mul(pts[i].Y, z_inv);
    table[i / 8][i % 8] = {fe_add(y, x), fe_sub(y, x),
                           fe_mul(fe_mul(x, y), d2)};
  }
  return table;
}

const BaseTable& base_table() {
  static const BaseTable table = build_base_table();
  return table;
}

// f = g if `flag` is 1, unchanged if 0; constant time.
[[gnu::always_inline]] inline void fe_cmov(Fe& f, const Fe& g,
                                           std::uint64_t flag) {
  const std::uint64_t mask = 0 - flag;
  for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
}

[[gnu::always_inline]] inline void ge_cmov(GeNiels& t, const GeNiels& u,
                                           std::uint64_t flag) {
  fe_cmov(t.ypx, u.ypx, flag);
  fe_cmov(t.ymx, u.ymx, flag);
  fe_cmov(t.xy2d, u.xy2d, flag);
}

// [digit * 256^j]B for digit in [-8, 8], scanning all 8 entries of the row
// so neither the memory access nor the control flow depends on the digit.
GeNiels ge_select(const std::array<GeNiels, 8>& row, std::int8_t digit) {
  const std::uint64_t negative =
      static_cast<std::uint64_t>(static_cast<std::uint8_t>(digit)) >> 7;
  const std::uint64_t magnitude = static_cast<std::uint64_t>(
      digit - 2 * (digit & -static_cast<int>(negative)));
  GeNiels t{kOne, kOne, kZero};  // the identity
  for (std::uint64_t k = 1; k <= 8; ++k) {
    ge_cmov(t, row[k - 1], ((magnitude ^ k) - 1) >> 63);  // 1 iff equal
  }
  // -(x, y) = (-x, y): y + x and y - x trade places, 2dxy flips sign.
  const GeNiels minus{t.ymx, t.ypx, fe_sub(kZero, t.xy2d)};
  ge_cmov(t, minus, negative);
  return t;
}

// e * 9 through the comb, for any 32-byte little-endian e below 2^255
// (a clamped scalar, or one already reduced mod l).
void comb(std::uint8_t* out, const std::uint8_t* e) {
  // 64 signed radix-16 digits in [-8, 8], e = sum digit[i] * 16^i. The top
  // byte is below 128, so the last digit absorbs the final carry without
  // overflowing.
  std::int8_t digit[64];
  for (int i = 0; i < 32; ++i) {
    digit[2 * i] = static_cast<std::int8_t>(e[i] & 15);
    digit[2 * i + 1] = static_cast<std::int8_t>(e[i] >> 4);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int v = digit[i] + carry;
    carry = (v + 8) >> 4;
    digit[i] = static_cast<std::int8_t>(v - 16 * carry);
  }
  digit[63] = static_cast<std::int8_t>(digit[63] + carry);

  // Odd digits weigh 16 * 256^j and even digits 256^j: sum the odd ones,
  // multiply by 16, then add the even ones.
  const BaseTable& table = base_table();
  GePoint h = kGeIdentity;
  for (int i = 1; i < 64; i += 2) {
    h = ge_madd(h, ge_select(table[i / 2], digit[i]));
  }
  h = ge_dbl(ge_dbl(ge_dbl(ge_dbl(h))));
  for (int i = 0; i < 64; i += 2) {
    h = ge_madd(h, ge_select(table[i / 2], digit[i]));
  }

  // u = (1 + y) / (1 - y) = (Z + Y) / (Z - Y).
  fe_to_bytes(out, fe_mul(fe_add(h.Z, h.Y), fe_invert(fe_sub(h.Z, h.Y))));
}

// scalar * 9 through the comb; equal to ladder(out, scalar, 9).
void comb_base(std::uint8_t* out, const std::uint8_t* scalar) {
  std::uint8_t e[32];
  clamp(e, scalar);
  comb(out, e);
}

// ---- Scalars mod l ----------------------------------------------------------
//
// l = 2^252 + 27742317777372353535851937790883648493 is the prime order of
// B. Numbers are little-endian arrays of 64-bit limbs; every loop bound is
// fixed and every selection a mask, so neither branches nor memory indices
// depend on the scalars.

// l, with a fifth zero limb for the 5-limb subtraction.
constexpr std::uint64_t kL[5] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL,
                                 0, 0x1000000000000000ULL, 0};
// floor(2^512 / l), the Barrett constant.
constexpr std::uint64_t kMu[5] = {0xed9ce5a30a2c131bULL,
                                  0x2106215d086329a7ULL,
                                  0xffffffffffffffebULL,
                                  0xffffffffffffffffULL, 0xf};

// out[0 .. NA + NB) = a * b, schoolbook.
template <int NA, int NB>
void mul_limbs(std::uint64_t* out, const std::uint64_t* a,
               const std::uint64_t* b) {
  for (int i = 0; i < NA + NB; ++i) out[i] = 0;
  for (int i = 0; i < NA; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < NB; ++j) {
      const u128 t = (u128)a[i] * b[j] + out[i + j] + carry;
      out[i + j] = (std::uint64_t)t;
      carry = (std::uint64_t)(t >> 64);
    }
    out[i + NB] = carry;
  }
}

// r -= b over 5 limbs, mod 2^320; returns 1 if it borrowed (r was < b).
std::uint64_t sub_limbs(std::uint64_t* r, const std::uint64_t* b) {
  std::uint64_t borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 d = (u128)r[i] - b[i] - borrow;
    r[i] = (std::uint64_t)d;
    borrow = (std::uint64_t)(d >> 127);
  }
  return borrow;
}

// r -= l unless that would go below zero.
void sub_l_if_not_less(std::uint64_t* r) {
  std::uint64_t t[5] = {r[0], r[1], r[2], r[3], r[4]};
  const std::uint64_t keep = 0 - sub_limbs(t, kL);  // all ones if r < l
  for (int i = 0; i < 5; ++i) r[i] = (r[i] & keep) | (t[i] & ~keep);
}

// out = a * b mod l, for 32-byte little-endian a and b. The product is
// below 2^512, so Barrett reduction with 2^64 limbs applies (Menezes et
// al., Handbook of Applied Cryptography, Algorithm 14.42): the quotient
// estimate q3 = floor(floor(x / 2^192) * mu / 2^320) is at most 2 short,
// so x - q3 * l lies in [0, 3l) and two conditional subtractions finish.
void sc_mul(std::uint8_t* out, const std::uint8_t* a, const std::uint8_t* b) {
  auto load = [](std::uint64_t* v, const std::uint8_t* s) {
    for (int i = 0; i < 4; ++i) {
      v[i] = 0;
      for (int k = 0; k < 8; ++k) {
        v[i] |= std::uint64_t{s[8 * i + k]} << (8 * k);
      }
    }
  };
  std::uint64_t av[4], bv[4], x[8];
  load(av, a);
  load(bv, b);
  mul_limbs<4, 4>(x, av, bv);

  std::uint64_t q2[10], r2[9];
  mul_limbs<5, 5>(q2, x + 3, kMu);
  mul_limbs<5, 4>(r2, q2 + 5, kL);
  std::uint64_t r[5] = {x[0], x[1], x[2], x[3], x[4]};
  sub_limbs(r, r2);  // x - q3 * l, exact mod 2^320 since it is below 3l
  sub_l_if_not_less(r);
  sub_l_if_not_less(r);

  for (int i = 0; i < 4; ++i) {
    for (int k = 0; k < 8; ++k) {
      out[8 * i + k] = static_cast<std::uint8_t>(r[i] >> (8 * k));
    }
  }
}

}  // namespace

util::Bytes x25519(const util::Bytes& scalar, const util::Bytes& point) {
  if (scalar.size() != kX25519KeySize || point.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  util::Bytes result(kX25519KeySize);
  ladder(result.data(), scalar.data(), fe_from_bytes(point.data()));
  return result;
}

util::Bytes x25519_base(const util::Bytes& scalar) {
  if (scalar.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  util::Bytes result(kX25519KeySize);
  comb_base(result.data(), scalar.data());
  return result;
}

util::Bytes x25519_base_product(const util::Bytes& a, const util::Bytes& b) {
  if (a.size() != kX25519KeySize || b.size() != kX25519KeySize) {
    throw std::invalid_argument("x25519: inputs must be 32 bytes");
  }
  std::uint8_t ea[32], eb[32], k[32];
  clamp(ea, a.data());
  clamp(eb, b.data());
  sc_mul(k, ea, eb);
  util::Bytes result(kX25519KeySize);
  comb(result.data(), k);
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
