#include "groups/key_manager.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace odtn::groups {

namespace {

// Room for derive()'s labels; the longest is "identity-key" (12 bytes).
constexpr std::size_t kMaxLabel = 16;

// The low `bytes` bytes of v, little endian, at out.
void put_le(std::uint8_t* out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

KeyManager::KeyManager(const GroupDirectory& directory, std::uint64_t seed)
    : node_count_(directory.node_count()),
      group_count_(directory.group_count()) {
  util::put_u64le(master_, seed);
  util::append(master_, util::to_bytes("odtn-key-manager-v1"));
}

util::Bytes KeyManager::derive(std::string_view label,
                               std::uint64_t index) const {
  // HKDF(master, info) = Expand(Extract(master), info): the extract step
  // depends on the master alone, so it runs once per manager.
  if (!prk_) prk_ = crypto::hkdf_extract_key(/*salt=*/{}, master_);
  if (label.size() > kMaxLabel) {
    throw std::invalid_argument("KeyManager::derive: label too long");
  }
  std::uint8_t info[kMaxLabel + 8];
  std::memcpy(info, label.data(), label.size());
  put_le(info + label.size(), index, 8);
  util::Bytes key(32);
  crypto::hkdf_expand_into(
      *prk_, std::span<const std::uint8_t>(info, label.size() + 8), key);
  return key;
}

const util::Bytes& KeyManager::group_key(GroupId group) const {
  if (group >= group_count_) {
    throw std::out_of_range("KeyManager::group_key");
  }
  auto it = group_keys_.find(group);
  if (it == group_keys_.end()) {
    it = group_keys_.emplace(group, derive("group-key", group)).first;
  }
  return it->second;
}

crypto::KeyPair& KeyManager::identity(NodeId node) const {
  auto it = identities_.find(node);
  if (it == identities_.end()) {
    crypto::KeyPair kp;
    kp.private_key = derive("identity-key", node);
    it = identities_.emplace(node, std::move(kp)).first;
  }
  return it->second;
}

const crypto::KeyPair& KeyManager::node_identity(NodeId node) const {
  if (node >= node_count_) {
    throw std::out_of_range("KeyManager::node_identity");
  }
  crypto::KeyPair& kp = identity(node);
  if (kp.public_key.empty()) {
    kp.public_key = crypto::x25519_base(kp.private_key);
  }
  return kp;
}

const util::Bytes& KeyManager::inbox_key(NodeId node) const {
  if (node >= node_count_) {
    throw std::out_of_range("KeyManager::inbox_key");
  }
  auto it = inbox_keys_.find(node);
  if (it == inbox_keys_.end()) {
    it = inbox_keys_.emplace(node, derive("inbox-key", node)).first;
  }
  return it->second;
}

const util::Bytes& KeyManager::session_key(NodeId a, NodeId b) const {
  if (a == b) throw std::invalid_argument("session_key: a == b");
  if (a >= node_count_ || b >= node_count_) {
    throw std::out_of_range("KeyManager::session_key");
  }
  NodeId lo = std::min(a, b), hi = std::max(a, b);
  std::uint64_t cache_key = (std::uint64_t{lo} << 32) | hi;
  auto it = session_cache_.find(cache_key);
  if (it != session_cache_.end()) return it->second;

  // x25519(private of lo, public of hi), without the ladder.
  const util::Bytes shared = crypto::x25519_base_product(
      identity(lo).private_key, identity(hi).private_key);
  constexpr std::string_view kLabel = "odtn-session";
  std::uint8_t info[kLabel.size() + 8];
  std::memcpy(info, kLabel.data(), kLabel.size());
  put_le(info + kLabel.size(), lo, 4);
  put_le(info + kLabel.size() + 4, hi, 4);
  util::Bytes key(32);
  crypto::hkdf_expand_into(crypto::hkdf_extract_key(/*salt=*/{}, shared),
                           info, key);
  auto [pos, inserted] = session_cache_.emplace(cache_key, std::move(key));
  (void)inserted;
  return pos->second;
}

}  // namespace odtn::groups
