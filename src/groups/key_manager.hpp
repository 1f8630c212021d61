// Key material for onion-group routing.
//
// The paper delegates key setup to ARDEN (attribute-based encryption); the
// analysis only requires that (a) every member of group R_k can peel layer
// k and (b) two meeting nodes can establish a secure link. We realize (a)
// with HKDF-derived per-group symmetric keys and (b) with per-node X25519
// identities + ECDH (see DESIGN.md for why this substitution is faithful).
//
// All key material is derived lazily and memoized: each key is a pure
// function derive(master, label, index) of its index, so on-demand
// derivation yields byte-identical keys while a run only ever pays for the
// handful of groups/nodes a message actually touches — constructing a
// KeyManager is O(1) even over a million-node directory. The public half
// of an identity (one X25519 base-point ladder) is derived only when read:
// session_key(a, b) needs only the lower endpoint's private key and the
// higher endpoint's public key, so the lower endpoint never pays for it.
#pragma once

#include <unordered_map>
#include <vector>

#include "crypto/x25519.hpp"
#include "groups/group_directory.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace odtn::groups {

class KeyManager {
 public:
  /// Binds the key space to `directory`'s sizes; keys derive from a master
  /// seed (deterministic per experiment) on first use.
  KeyManager(const GroupDirectory& directory, std::uint64_t seed);

  /// Symmetric key shared by all members of `group` (32 bytes).
  const util::Bytes& group_key(GroupId group) const;

  /// X25519 identity of `node` (the public key is derived on first read).
  const crypto::KeyPair& node_identity(NodeId node) const;

  /// Symmetric key a sender uses for the innermost onion layer addressed to
  /// `node` (32 bytes). Models the end-to-end key the source shares with
  /// the destination (the paper assumes end-to-end encryption exists).
  const util::Bytes& inbox_key(NodeId node) const;

  /// ECDH + HKDF session key for the "secure link" two meeting nodes
  /// establish (Algorithms 1-2, line "establish a secure link"). Symmetric
  /// in (a, b): x25519(private of min(a, b), public of max(a, b)), then
  /// HKDF; memoized because the ladder is the costly operation.
  const util::Bytes& session_key(NodeId a, NodeId b) const;

  std::size_t node_count() const { return node_count_; }
  std::size_t group_count() const { return group_count_; }

 private:
  // The memoized identity of `node` with its private key derived; the
  // public key stays empty until node_identity reads it.
  crypto::KeyPair& identity(NodeId node) const;

  std::size_t node_count_ = 0;
  std::size_t group_count_ = 0;
  util::Bytes master_;
  // Lazy caches. unordered_map references stay valid across inserts, so
  // returned key references are stable (an identity's public key is filled
  // in place). Not thread-safe: each simulation run owns its KeyManager.
  mutable std::unordered_map<GroupId, util::Bytes> group_keys_;
  mutable std::unordered_map<NodeId, crypto::KeyPair> identities_;
  mutable std::unordered_map<NodeId, util::Bytes> inbox_keys_;
  mutable std::unordered_map<std::uint64_t, util::Bytes> session_cache_;
};

}  // namespace odtn::groups
