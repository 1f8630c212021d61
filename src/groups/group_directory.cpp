#include "groups/group_directory.hpp"

#include <algorithm>
#include <stdexcept>

namespace odtn::groups {

GroupDirectory::GroupDirectory(std::size_t n, std::size_t g, util::Rng* rng)
    : n_(n), g_(g) {
  if (n == 0) throw std::invalid_argument("GroupDirectory: empty network");
  if (g == 0 || g > n) {
    throw std::invalid_argument("GroupDirectory: group size out of range");
  }
  std::vector<NodeId> order(n);
  for (NodeId i = 0; i < n; ++i) order[i] = i;
  if (rng != nullptr) rng->shuffle(order);

  group_count_ = (n + g - 1) / g;
  members_.resize(group_count_);
  for (auto& m : members_) m.reserve(g);
  node_to_group_.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    GroupId gid = static_cast<GroupId>(pos / g);
    members_[gid].push_back(order[pos]);
    node_to_group_[order[pos]] = gid;
  }
}

GroupDirectory::GroupDirectory(std::size_t n, std::size_t g,
                               const Sharded& opts)
    : n_(n), g_(g), seed_(opts.seed) {
  if (n == 0) throw std::invalid_argument("GroupDirectory: empty network");
  if (g == 0 || g > n) {
    throw std::invalid_argument("GroupDirectory: group size out of range");
  }
  if (opts.shards == 0 || opts.shards > n) {
    throw std::invalid_argument("GroupDirectory: shard count out of range");
  }
  shard_count_ = opts.shards;
  shard_size_ = (n + shard_count_ - 1) / shard_count_;
  if (shard_size_ < g) {
    throw std::invalid_argument(
        "GroupDirectory: shards smaller than the group size");
  }
  // ceil(n / shard_size) shards actually hold nodes; trailing shards of an
  // oversized request would be empty, which the bound above prevents for
  // all but exact-division edge cases — recompute to the occupied count.
  shard_count_ = (n + shard_size_ - 1) / shard_size_;
  groups_per_full_shard_ = (shard_size_ + g - 1) / g;
  const std::size_t last_size = n - (shard_count_ - 1) * shard_size_;
  group_count_ = (shard_count_ - 1) * groups_per_full_shard_ +
                 (last_size + g - 1) / g;
  shards_.resize(shard_count_);
}

const GroupDirectory::Shard& GroupDirectory::shard(std::size_t s) const {
  std::unique_ptr<Shard>& slot = shards_[s];
  if (!slot) {
    const std::size_t begin = s * shard_size_;
    const std::size_t size = std::min(shard_size_, n_ - begin);
    std::vector<NodeId> order(size);
    for (NodeId i = 0; i < size; ++i) order[i] = static_cast<NodeId>(i);
    util::Rng rng(util::derive_seed(seed_, s));
    rng.shuffle(order);

    auto sh = std::make_unique<Shard>();
    const GroupId base = static_cast<GroupId>(s * groups_per_full_shard_);
    sh->group_of.resize(size);
    sh->members.resize((size + g_ - 1) / g_);
    for (std::size_t pos = 0; pos < size; ++pos) {
      const GroupId gid = base + static_cast<GroupId>(pos / g_);
      sh->group_of[order[pos]] = gid;
      sh->members[pos / g_].push_back(static_cast<NodeId>(begin + order[pos]));
    }
    slot = std::move(sh);
  }
  return *slot;
}

GroupId GroupDirectory::group_of(NodeId node) const {
  if (node >= n_) {
    throw std::out_of_range("GroupDirectory::group_of");
  }
  if (!is_sharded()) return node_to_group_[node];
  const std::size_t s = node / shard_size_;
  return shard(s).group_of[node - s * shard_size_];
}

const std::vector<NodeId>& GroupDirectory::members(GroupId group) const {
  if (group >= group_count_) {
    throw std::out_of_range("GroupDirectory::members");
  }
  if (!is_sharded()) return members_[group];
  const std::size_t s = group / groups_per_full_shard_;
  return shard(s).members[group - s * groups_per_full_shard_];
}

bool GroupDirectory::in_group(NodeId node, GroupId group) const {
  return group_of(node) == group;
}

std::vector<GroupId> GroupDirectory::select_relay_groups(
    NodeId src, NodeId dst, std::size_t k, util::Rng& rng) const {
  const GroupId src_group = group_of(src);
  const GroupId dst_group = group_of(dst);

  if (is_sharded()) {
    // Rejection sampling over the dense group-id space: never enumerates
    // the (possibly huge) group list. k distinct ids, excluding the
    // endpoint groups when enough groups exist (the same fallback rule as
    // the explicit mode below).
    const std::size_t excluded = src_group == dst_group ? 1 : 2;
    const bool exclude_endpoints = group_count_ - excluded >= k;
    if (!exclude_endpoints && group_count_ < k) {
      throw std::invalid_argument(
          "select_relay_groups: fewer groups than requested relays");
    }
    std::vector<GroupId> out;
    out.reserve(k);
    while (out.size() < k) {
      const GroupId gid = static_cast<GroupId>(rng.below(group_count_));
      if (exclude_endpoints && (gid == src_group || gid == dst_group)) {
        continue;
      }
      if (std::find(out.begin(), out.end(), gid) != out.end()) continue;
      out.push_back(gid);
    }
    return out;
  }

  std::vector<GroupId> candidates;
  for (GroupId g = 0; g < members_.size(); ++g) {
    if (g != src_group && g != dst_group) candidates.push_back(g);
  }
  // With very few groups (e.g. g = n/2), endpoint exclusion may be
  // impossible; fall back to all groups, as ARDEN does in small networks.
  if (candidates.size() < k) {
    candidates.clear();
    for (GroupId g = 0; g < members_.size(); ++g) candidates.push_back(g);
  }
  if (candidates.size() < k) {
    throw std::invalid_argument(
        "select_relay_groups: fewer groups than requested relays");
  }
  auto idx = rng.sample_without_replacement(candidates.size(), k);
  std::vector<GroupId> out;
  out.reserve(k);
  for (auto i : idx) out.push_back(candidates[i]);
  return out;
}

}  // namespace odtn::groups
