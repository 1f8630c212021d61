// Onion-group membership (Sec. II-B / III-A of the paper).
//
// The n nodes of the network are partitioned into ceil(n/g) groups of size
// g (the last group may be smaller when g does not divide n — the paper's
// analysis ignores this, the simulator does not). Any node in a group can
// peel the onion layer encrypted to that group.
//
// Two assignment modes:
//
//  * Explicit (the historical mode): one global random permutation,
//    materialized up front. O(n) per directory — fine at paper scale, and
//    byte-identical to every recorded baseline.
//  * Sharded (the scale mode): nodes are split into contiguous shards and
//    each shard is permuted independently, lazily, from a per-shard seed.
//    A run that touches src, dst and K relay groups materializes at most
//    K + 2 shards, so directory work is O((K + 2) * shard_size) instead of
//    O(n) — the piece that lets group/copy-holder selection avoid ever
//    enumerating a million nodes.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/ids.hpp"
#include "util/rng.hpp"

namespace odtn::groups {

class GroupDirectory {
 public:
  /// Explicit mode: partitions nodes 0..n-1 into groups of size g. If `rng`
  /// is non-null the assignment is a random permutation (as in the paper's
  /// simulations); otherwise nodes are assigned in id order (deterministic,
  /// for tests).
  GroupDirectory(std::size_t n, std::size_t g, util::Rng* rng = nullptr);

  /// Sharded-mode options: `shards` contiguous node blocks, each shuffled
  /// lazily with util::derive_seed(seed, shard_index).
  struct Sharded {
    std::size_t shards;
    std::uint64_t seed;
  };

  /// Sharded mode. Group ids are still global and dense: every full shard
  /// contributes ceil(shard_size/g) groups. Each shard's last group may be
  /// smaller than g (the explicit mode only has one such tail group).
  GroupDirectory(std::size_t n, std::size_t g, const Sharded& opts);

  std::size_t node_count() const { return n_; }
  std::size_t group_count() const { return group_count_; }
  bool is_sharded() const { return shard_size_ != 0; }

  GroupId group_of(NodeId node) const;
  const std::vector<NodeId>& members(GroupId group) const;
  bool in_group(NodeId node, GroupId group) const;

  /// Selects the K relay groups R_1..R_K for a message (Algorithms 1-2,
  /// line 2): a uniform random choice of K distinct groups, excluding the
  /// groups of the source and destination when enough groups exist (a relay
  /// group containing an endpoint would weaken its anonymity).
  /// Throws if fewer than K candidate groups are available. Sharded
  /// directories sample by rejection instead of enumerating all groups.
  std::vector<GroupId> select_relay_groups(NodeId src, NodeId dst,
                                           std::size_t k,
                                           util::Rng& rng) const;

 private:
  struct Shard {
    // Local node offset -> global group id.
    std::vector<GroupId> group_of;
    // Per local group: global member node ids.
    std::vector<std::vector<NodeId>> members;
  };
  const Shard& shard(std::size_t s) const;

  std::size_t n_ = 0;
  std::size_t g_ = 0;
  std::size_t group_count_ = 0;

  // Explicit mode.
  std::vector<GroupId> node_to_group_;
  std::vector<std::vector<NodeId>> members_;

  // Sharded mode (shard_size_ == 0 means explicit). The shard cache is
  // materialized on demand; entries are heap-allocated and never replaced,
  // so member references stay stable. Not thread-safe: each simulation run
  // owns its directory.
  std::size_t shard_size_ = 0;
  std::size_t shard_count_ = 0;
  std::size_t groups_per_full_shard_ = 0;
  std::uint64_t seed_ = 0;
  mutable std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace odtn::groups
