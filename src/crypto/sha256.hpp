// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the hash underlying HMAC/HKDF key derivation for onion-group keys
// and pairwise session keys. Verified against the NIST test vectors in
// tests/crypto/sha256_test.cpp.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace odtn::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  /// The eight-word chaining value.
  using State = std::array<std::uint32_t, 8>;

  Sha256();

  /// Resumes a hash after `blocks` whole 64-byte blocks whose chaining
  /// value is `state` (see state()).
  Sha256(const State& state, std::uint64_t blocks);

  /// Absorbs more input; may be called repeatedly.
  void update(const std::uint8_t* data, std::size_t len);
  void update(std::span<const std::uint8_t> data) {
    update(data.data(), data.size());
  }

  /// The chaining value so far: a midstate to resume from when a whole
  /// number of blocks has been absorbed (HMAC's key pads).
  const State& state() const { return state_; }

  /// Finalizes and writes the 32-byte digest to `out`. The object must not
  /// be updated afterwards (reconstruct for a new message).
  void finish(std::span<std::uint8_t, kDigestSize> out);

  /// finish() into a new buffer.
  util::Bytes finish();

  /// One-shot convenience.
  static util::Bytes digest(const util::Bytes& data);

 private:
  void process_block(const std::uint8_t* block);

  State state_;
  std::array<std::uint8_t, kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finished_ = false;
};

}  // namespace odtn::crypto
