// X25519 Diffie-Hellman over Curve25519 (RFC 7748), from scratch.
//
// Gives every DTN node an identity key pair. When two nodes meet, the
// protocol layer establishes the "secure link" of Algorithms 1-2 by ECDH +
// HKDF; the onion layer uses the derived key for hop-by-hop AEAD framing.
// The simulator's key oracle holds both private keys of every pair, so it
// computes the ECDH value with x25519_base_product; x25519 and
// shared_secret (the Montgomery ladder) are the reference it is tested
// against. Verified against the RFC 7748 test vectors (including the
// 1k-iteration ladder) in tests/crypto/x25519_test.cpp.
#pragma once

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace odtn::crypto {

constexpr std::size_t kX25519KeySize = 32;

/// Scalar multiplication: out = scalar * point (both 32 bytes, little
/// endian). The scalar is clamped internally per RFC 7748.
util::Bytes x25519(const util::Bytes& scalar, const util::Bytes& point);

/// Computes scalar * basepoint (u = 9); equal to x25519(scalar, {9, 0, ...})
/// but runs a fixed-base comb on the equivalent Edwards curve instead of the
/// ladder. The first call builds the comb's 30 KB table (thread-safe).
util::Bytes x25519_base(const util::Bytes& scalar);

/// x25519(a, x25519_base(b)), the ECDH value of two private keys, computed
/// as one fixed-base comb over clamp(a) * clamp(b) mod l. B has prime order
/// l and both clamped scalars are nonzero mod l, so [clamp(a)]([clamp(b)]B)
/// = [clamp(a) * clamp(b) mod l]B: the same point, the same 32 bytes, with
/// no ladder. For a caller that holds both private keys.
util::Bytes x25519_base_product(const util::Bytes& a, const util::Bytes& b);

struct KeyPair {
  util::Bytes private_key;  // 32 bytes (stored unclamped; clamped on use)
  util::Bytes public_key;   // 32 bytes
};

/// Generates a key pair from the given RNG (deterministic per seed; the
/// simulator needs reproducible identities).
KeyPair generate_keypair(util::Rng& rng);

/// ECDH shared secret: x25519(my_private, their_public).
util::Bytes shared_secret(const util::Bytes& my_private,
                          const util::Bytes& their_public);

}  // namespace odtn::crypto
