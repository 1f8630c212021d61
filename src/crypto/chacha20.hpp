// ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//
// Supplies the keystream for onion-layer and cell encryption (through the
// AEAD) and for the DRBG. chacha20_block is the section 2.3.2 reference;
// the stream functions make four blocks at once in four 32-bit vector lanes
// (GCC vector extensions: SSE2 on baseline x86-64, no intrinsics) and the
// last one to three blocks one at a time with the same rounds. Verified
// against the RFC 8439 test vectors and against chained chacha20_block
// output in tests/crypto.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace odtn::crypto {

constexpr std::size_t kChaChaKeySize = 32;
constexpr std::size_t kChaChaNonceSize = 12;

/// The ChaCha20 block function: produces one 64-byte keystream block for the
/// given key/nonce/counter. Throws std::invalid_argument unless the key is
/// 32 bytes and the nonce 12.
std::array<std::uint8_t, 64> chacha20_block(std::span<const std::uint8_t> key,
                                            std::span<const std::uint8_t> nonce,
                                            std::uint32_t counter);

/// XORs `data` with the ChaCha20 keystream starting at `initial_counter`.
/// Encryption and decryption are the same operation.
util::Bytes chacha20_xor(const util::Bytes& key, const util::Bytes& nonce,
                         std::uint32_t initial_counter,
                         const util::Bytes& data);

/// In-place variant of chacha20_xor: writes into `out` (resized, capacity
/// reused), allocation-free in steady state. `out` must not alias `data`.
/// The block counter wraps modulo 2^32, as chacha20_block's argument does.
void chacha20_xor_into(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> nonce,
                       std::uint32_t initial_counter,
                       std::span<const std::uint8_t> data, util::Bytes& out);

}  // namespace odtn::crypto
