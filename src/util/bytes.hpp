// Byte-buffer helpers shared by the crypto and onion layers.
//
// A `Bytes` buffer is the unit of every wire-format operation in this
// library: onion packets, keys, nonces, and digests are all `Bytes`.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace odtn::util {

using Bytes = std::vector<std::uint8_t>;

/// Encodes `data` as lowercase hex ("deadbeef").
std::string to_hex(const Bytes& data);

/// Decodes a hex string (upper or lower case, even length).
/// Throws std::invalid_argument on malformed input.
Bytes from_hex(std::string_view hex);

/// Copies a string's bytes into a buffer (no terminator).
Bytes to_bytes(std::string_view s);

/// Interprets a buffer as text.
std::string to_string(const Bytes& data);

/// Constant-time equality; returns false on length mismatch without
/// inspecting contents. Use for MAC/tag comparison.
bool ct_equal_span(std::span<const std::uint8_t> a,
                   std::span<const std::uint8_t> b);

/// Best-effort secure wipe (volatile writes so the compiler keeps them).
void secure_zero(Bytes& data);

/// Appends `src` to `dst`.
void append(Bytes& dst, const Bytes& src);

/// Little-endian encode/decode of fixed-width integers (wire format).
void put_u32le(Bytes& dst, std::uint32_t v);
void put_u64le(Bytes& dst, std::uint64_t v);
std::uint32_t get_u32le(const Bytes& src, std::size_t offset);
std::uint64_t get_u64le(const Bytes& src, std::size_t offset);

}  // namespace odtn::util
