// Poly1305 one-time authenticator (RFC 8439), implemented from scratch.
//
// Combined with ChaCha20 into the AEAD used for every onion layer, so a
// relay that lacks the group key cannot peel (or undetectably tamper with)
// a layer.
#pragma once

#include <array>
#include <span>

#include "util/bytes.hpp"

namespace odtn::crypto {

constexpr std::size_t kPolyKeySize = 32;
constexpr std::size_t kPolyTagSize = 16;

/// Computes the 16-byte Poly1305 tag of `data` under a 32-byte one-time key.
util::Bytes poly1305_tag(const util::Bytes& key, const util::Bytes& data);

/// The AEAD_CHACHA20_POLY1305 tag (RFC 8439 section 2.8): Poly1305 over
/// aad || pad16 || ciphertext || pad16 || le64(|aad|) || le64(|ciphertext|),
/// streamed from the two spans without assembling that input.
std::array<std::uint8_t, kPolyTagSize> poly1305_aead_tag(
    std::span<const std::uint8_t, kPolyKeySize> key,
    std::span<const std::uint8_t> aad,
    std::span<const std::uint8_t> ciphertext);

}  // namespace odtn::crypto
