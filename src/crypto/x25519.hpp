// X25519 Diffie-Hellman over Curve25519 (RFC 7748), from scratch.
//
// Gives every DTN node an identity key pair. When two nodes meet, the
// protocol layer establishes the "secure link" of Algorithms 1-2 by ECDH +
// HKDF; the onion layer uses the derived key for hop-by-hop AEAD framing.
// Verified against the RFC 7748 test vectors (including the 1k-iteration
// ladder) in tests/crypto/x25519_test.cpp.
#pragma once

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace odtn::crypto {

constexpr std::size_t kX25519KeySize = 32;

/// Scalar multiplication: out = scalar * point (both 32 bytes, little
/// endian). The scalar is clamped internally per RFC 7748.
util::Bytes x25519(const util::Bytes& scalar, const util::Bytes& point);

/// Computes scalar * basepoint (u = 9); equal to x25519(scalar, {9, 0, ...})
/// but runs the same ladder with the multiplication by u reduced to a small
/// constant, and builds no base-point encoding.
util::Bytes x25519_base(const util::Bytes& scalar);

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
