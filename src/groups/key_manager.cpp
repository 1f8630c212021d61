#include "groups/key_manager.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/hmac.hpp"

namespace odtn::groups {

namespace {

util::Bytes derive(const util::Bytes& master, const std::string& label,
                   std::uint64_t index) {
  util::Bytes info = util::to_bytes(label);
  util::put_u64le(info, index);
  return crypto::hkdf(master, /*salt=*/{}, info, 32);
}

}  // namespace

KeyManager::KeyManager(const GroupDirectory& directory, std::uint64_t seed)
    : node_count_(directory.node_count()),
      group_count_(directory.group_count()) {
  util::put_u64le(master_, seed);
  util::append(master_, util::to_bytes("odtn-key-manager-v1"));
}

const util::Bytes& KeyManager::group_key(GroupId group) const {
  if (group >= group_count_) {
    throw std::out_of_range("KeyManager::group_key");
  }
  auto it = group_keys_.find(group);
  if (it == group_keys_.end()) {
    it = group_keys_.emplace(group, derive(master_, "group-key", group)).first;
  }
  return it->second;
}

crypto::KeyPair& KeyManager::identity(NodeId node) const {
  auto it = identities_.find(node);
  if (it == identities_.end()) {
    crypto::KeyPair kp;
    kp.private_key = derive(master_, "identity-key", node);
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
    it = inbox_keys_.emplace(node, derive(master_, "inbox-key", node)).first;
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

  util::Bytes shared = crypto::shared_secret(identity(lo).private_key,
                                             node_identity(hi).public_key);
  util::Bytes info = util::to_bytes("odtn-session");
  util::put_u32le(info, lo);
  util::put_u32le(info, hi);
  util::Bytes key = crypto::hkdf(shared, /*salt=*/{}, info, 32);
  auto [pos, inserted] = session_cache_.emplace(cache_key, std::move(key));
  (void)inserted;
  return pos->second;
}

}  // namespace odtn::groups
