#include "crypto/aead.hpp"

#include <stdexcept>

#include "crypto/chacha20.hpp"
#include "crypto/poly1305.hpp"

namespace odtn::crypto {

util::Bytes aead_seal(const util::Bytes& key, const util::Bytes& nonce,
                      const util::Bytes& aad, const util::Bytes& plaintext) {
  util::Bytes out;
  aead_seal_into(key, nonce, aad, plaintext, out);
  return out;
}

std::optional<util::Bytes> aead_open(const util::Bytes& key,
                                     const util::Bytes& nonce,
                                     const util::Bytes& aad,
                                     const util::Bytes& sealed) {
  util::Bytes out;
  if (!aead_open_into(key, nonce, aad, sealed, out)) return std::nullopt;
  return out;
}

void aead_seal_into(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> nonce,
                    std::span<const std::uint8_t> aad,
                    std::span<const std::uint8_t> plaintext,
                    util::Bytes& out) {
  if (key.size() != kAeadKeySize) {
    throw std::invalid_argument("aead_seal: key must be 32 bytes");
  }
  if (nonce.size() != kAeadNonceSize) {
    throw std::invalid_argument("aead_seal: nonce must be 12 bytes");
  }
  // Block 0 keys Poly1305; blocks 1, 2, ... encrypt.
  const auto block0 = chacha20_block(key, nonce, 0);
  chacha20_xor_into(key, nonce, 1, plaintext, out);
  const auto tag =
      poly1305_aead_tag(std::span(block0).first<kPolyKeySize>(), aad, out);
  out.insert(out.end(), tag.begin(), tag.end());
}

bool aead_open_into(std::span<const std::uint8_t> key,
                    std::span<const std::uint8_t> nonce,
                    std::span<const std::uint8_t> aad,
                    std::span<const std::uint8_t> sealed, util::Bytes& out) {
  if (key.size() != kAeadKeySize || nonce.size() != kAeadNonceSize) {
    return false;
  }
  if (sealed.size() < kAeadTagSize) return false;
  const auto ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  const auto block0 = chacha20_block(key, nonce, 0);
  const auto tag = poly1305_aead_tag(std::span(block0).first<kPolyKeySize>(),
                                     aad, ciphertext);
  if (!util::ct_equal_span(tag, sealed.last(kAeadTagSize))) return false;
  chacha20_xor_into(key, nonce, 1, ciphertext, out);
  return true;
}

}  // namespace odtn::crypto
