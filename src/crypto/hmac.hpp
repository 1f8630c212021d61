// HMAC-SHA256 (RFC 2104 / FIPS 198-1) and HKDF (RFC 5869).
//
// HKDF is the key-derivation workhorse of the library: onion-group keys,
// per-contact session keys, and per-layer nonces are all derived with
// domain-separated info strings.
//
// A keyed HMAC state (HmacSha256) holds the SHA-256 chaining values after
// the key's inner and outer pad blocks, so a tag costs the message's
// compressions plus one for the outer hash: a message that fits one block
// costs two, not four. hkdf_extract_key and hkdf_expand_into work on such
// states and write into caller storage; KeyManager keeps one state for its
// PRK, and an empty salt (HashLen zero bytes) uses one state computed once
// per process. hmac_sha256 is the one-shot form of the same code.
#pragma once

#include <initializer_list>
#include <span>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace odtn::crypto {

class HmacSha256 {
 public:
  /// Keys the state; a key longer than a block is hashed first.
  explicit HmacSha256(std::span<const std::uint8_t> key);

  /// Writes HMAC(key, parts[0] || parts[1] || ...) to `out`.
  void tag(std::initializer_list<std::span<const std::uint8_t>> parts,
           std::span<std::uint8_t, Sha256::kDigestSize> out) const;

 private:
  Sha256::State inner_;  // after key ^ ipad
  Sha256::State outer_;  // after key ^ opad
};

/// HKDF-Extract, keyed: the state of PRK = HMAC(salt, ikm), ready for
/// hkdf_expand_into. Empty salt behaves per RFC 5869.
HmacSha256 hkdf_extract_key(std::span<const std::uint8_t> salt,
                            std::span<const std::uint8_t> ikm);

/// HKDF-Expand: fills `out` (at most 255*32 bytes, else
/// std::invalid_argument) from the PRK's state and the context `info`.
void hkdf_expand_into(const HmacSha256& prk,
                      std::span<const std::uint8_t> info,
                      std::span<std::uint8_t> out);

/// HMAC-SHA256 of `data` under `key` (any key length). 32-byte output.
util::Bytes hmac_sha256(const util::Bytes& key, const util::Bytes& data);

}  // namespace odtn::crypto
