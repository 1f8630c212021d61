#include "crypto/hmac.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace odtn::crypto {

namespace {

using Digest = std::span<std::uint8_t, Sha256::kDigestSize>;

// The state of RFC 5869's default salt, HashLen zero bytes.
const HmacSha256& zero_salt() {
  static const HmacSha256 state(
      std::array<std::uint8_t, Sha256::kDigestSize>{});
  return state;
}

}  // namespace

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) {
  std::uint8_t k[Sha256::kBlockSize] = {0};
  if (key.size() > Sha256::kBlockSize) {
    Sha256 h;
    h.update(key);
    h.finish(Digest(k, Sha256::kDigestSize));
  } else if (!key.empty()) {
    std::memcpy(k, key.data(), key.size());
  }
  std::uint8_t pad[Sha256::kBlockSize];
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) pad[i] = k[i] ^ 0x36;
  Sha256 inner;
  inner.update(pad, Sha256::kBlockSize);
  inner_ = inner.state();
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) pad[i] = k[i] ^ 0x5c;
  Sha256 outer;
  outer.update(pad, Sha256::kBlockSize);
  outer_ = outer.state();
}

void HmacSha256::tag(std::initializer_list<std::span<const std::uint8_t>> parts,
                     Digest out) const {
  Sha256 inner(inner_, 1);
  for (const auto part : parts) inner.update(part);
  std::uint8_t inner_digest[Sha256::kDigestSize];
  inner.finish(inner_digest);
  Sha256 outer(outer_, 1);
  outer.update(inner_digest, Sha256::kDigestSize);
  outer.finish(out);
}

HmacSha256 hkdf_extract_key(std::span<const std::uint8_t> salt,
                            std::span<const std::uint8_t> ikm) {
  std::uint8_t prk[Sha256::kDigestSize];
  if (salt.empty()) {
    zero_salt().tag({ikm}, prk);
  } else {
    HmacSha256(salt).tag({ikm}, prk);
  }
  return HmacSha256(prk);
}

void hkdf_expand_into(const HmacSha256& prk,
                      std::span<const std::uint8_t> info,
                      std::span<std::uint8_t> out) {
  if (out.size() > 255 * Sha256::kDigestSize) {
    throw std::invalid_argument("hkdf_expand: length too large");
  }
  // T(i) = HMAC(PRK, T(i-1) || info || i), with T(0) empty.
  std::uint8_t t[Sha256::kDigestSize] = {0};
  std::size_t t_len = 0;
  for (std::size_t done = 0; done < out.size(); done += t_len) {
    const std::uint8_t counter[1] = {
        static_cast<std::uint8_t>(done / Sha256::kDigestSize + 1)};
    prk.tag({std::span<const std::uint8_t>(t, t_len), info, counter}, t);
    t_len = Sha256::kDigestSize;
    std::memcpy(out.data() + done, t, std::min(t_len, out.size() - done));
  }
}

util::Bytes hmac_sha256(const util::Bytes& key, const util::Bytes& data) {
  util::Bytes out(Sha256::kDigestSize);
  HmacSha256(key).tag({data}, Digest(out.data(), Sha256::kDigestSize));
  return out;
}

}  // namespace odtn::crypto
