// AEAD_CHACHA20_POLY1305 (RFC 8439 sec 2.8).
//
// The authenticated encryption used for (a) each onion layer under a group
// key and (b) the per-contact "secure link" of Algorithms 1-2.
#pragma once

#include <optional>
#include <span>

#include "util/bytes.hpp"

namespace odtn::crypto {

constexpr std::size_t kAeadKeySize = 32;
constexpr std::size_t kAeadNonceSize = 12;
constexpr std::size_t kAeadTagSize = 16;

/// Encrypts and authenticates: returns ciphertext || 16-byte tag.
util::Bytes aead_seal(const util::Bytes& key, const util::Bytes& nonce,
                      const util::Bytes& aad, const util::Bytes& plaintext);

/// Verifies and decrypts; returns nullopt if authentication fails (wrong
/// key, wrong nonce, tampered ciphertext, or truncated input).
std::optional<util::Bytes> aead_open(const util::Bytes& key,
                                     const util::Bytes& nonce,
                                     const util::Bytes& aad,
                                     const util::Bytes& sealed);

/// In-place seal: writes ciphertext || tag into `out` (resized, capacity
/// reused), allocation-free in steady state. `out` must not alias the
/// inputs.
void aead_seal_into(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> nonce,
                    std::span<const std::uint8_t> aad,
                    std::span<const std::uint8_t> plaintext, util::Bytes& out);

/// In-place open: checks the tag, then writes the plaintext into `out`.
/// Returns false exactly when aead_open would return nullopt; `out` is
/// unspecified then.
bool aead_open_into(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> nonce,
                    std::span<const std::uint8_t> aad,
                    std::span<const std::uint8_t> sealed, util::Bytes& out);

}  // namespace odtn::crypto
