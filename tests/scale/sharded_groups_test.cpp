// Sharded group assignment: the lazy per-shard permutation must still be a
// valid partition (every node in exactly one group, group sizes <= g),
// deterministic in (n, g, shards, seed), and cheap — a directory over 10^6
// nodes materializes nothing until queried.
#include "groups/group_directory.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "groups/key_manager.hpp"
#include "util/rng.hpp"

namespace odtn::groups {
namespace {

TEST(ShardedGroups, PartitionInvariants) {
  GroupDirectory dir(103, 5, GroupDirectory::Sharded{4, 42});
  ASSERT_TRUE(dir.is_sharded());
  EXPECT_EQ(dir.node_count(), 103u);

  // Every node maps to a group that lists it back.
  std::set<NodeId> seen;
  for (GroupId g = 0; g < dir.group_count(); ++g) {
    const auto& members = dir.members(g);
    EXPECT_GE(members.size(), 1u);
    EXPECT_LE(members.size(), 5u);
    for (NodeId v : members) {
      EXPECT_EQ(dir.group_of(v), g);
      EXPECT_TRUE(dir.in_group(v, g));
      EXPECT_TRUE(seen.insert(v).second) << "node in two groups";
    }
  }
  EXPECT_EQ(seen.size(), 103u);
}

TEST(ShardedGroups, DeterministicAcrossInstances) {
  GroupDirectory a(500, 5, GroupDirectory::Sharded{8, 7});
  GroupDirectory b(500, 5, GroupDirectory::Sharded{8, 7});
  for (NodeId v = 0; v < 500; ++v) {
    EXPECT_EQ(a.group_of(v), b.group_of(v));
  }
  // A different seed reshuffles at least one shard.
  GroupDirectory c(500, 5, GroupDirectory::Sharded{8, 8});
  bool any_diff = false;
  for (NodeId v = 0; v < 500 && !any_diff; ++v) {
    any_diff = a.group_of(v) != c.group_of(v);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ShardedGroups, GroupsStayInsideTheirShard) {
  // Shards are contiguous node blocks; a group never crosses shards.
  const std::size_t n = 97, g = 4, shards = 5;
  GroupDirectory dir(n, g, GroupDirectory::Sharded{shards, 3});
  const std::size_t shard_size = (n + shards - 1) / shards;
  for (GroupId gid = 0; gid < dir.group_count(); ++gid) {
    const auto& members = dir.members(gid);
    const std::size_t home = members.front() / shard_size;
    for (NodeId v : members) EXPECT_EQ(v / shard_size, home);
  }
}

TEST(ShardedGroups, SelectRelayGroupsDistinctAndExcluding) {
  GroupDirectory dir(1000, 5, GroupDirectory::Sharded{10, 9});
  util::Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    NodeId src = static_cast<NodeId>(rng.below(1000));
    NodeId dst = static_cast<NodeId>(rng.below(999));
    if (dst >= src) ++dst;
    auto relays = dir.select_relay_groups(src, dst, 3, rng);
    ASSERT_EQ(relays.size(), 3u);
    std::set<GroupId> uniq(relays.begin(), relays.end());
    EXPECT_EQ(uniq.size(), 3u);
    for (GroupId g : relays) {
      EXPECT_NE(g, dir.group_of(src));
      EXPECT_NE(g, dir.group_of(dst));
      EXPECT_LT(g, dir.group_count());
    }
  }
}

TEST(ShardedGroups, SelectRelayGroupsThrowsWhenTooFew) {
  GroupDirectory dir(10, 5, GroupDirectory::Sharded{1, 1});  // 2 groups
  util::Rng rng(1);
  EXPECT_THROW(dir.select_relay_groups(0, 9, 3, rng), std::invalid_argument);
}

TEST(ShardedGroups, Validation) {
  EXPECT_THROW(GroupDirectory(10, 5, GroupDirectory::Sharded{0, 1}),
               std::invalid_argument);
  EXPECT_THROW(GroupDirectory(10, 5, GroupDirectory::Sharded{11, 1}),
               std::invalid_argument);
  // shard_size (2) < g (5): groups cannot fit inside a shard.
  EXPECT_THROW(GroupDirectory(10, 5, GroupDirectory::Sharded{5, 1}),
               std::invalid_argument);
}

TEST(ShardedGroups, MillionNodeDirectoryIsCheapUntilQueried) {
  // O(1)-per-shard laziness: constructing and probing a handful of nodes
  // must not touch the other ~10^6. (A full materialization would blow the
  // test timeout by orders of magnitude before failing any assertion.)
  GroupDirectory dir(1'000'000, 5, GroupDirectory::Sharded{1024, 99});
  KeyManager keys(dir, 123);
  util::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    NodeId v = static_cast<NodeId>(rng.below(1'000'000));
    GroupId g = dir.group_of(v);
    EXPECT_TRUE(dir.in_group(v, g));
    EXPECT_EQ(keys.group_key(g).size(), 32u);
    EXPECT_EQ(keys.inbox_key(v).size(), 32u);
  }
  auto relays = dir.select_relay_groups(0, 999'999, 3, rng);
  EXPECT_EQ(relays.size(), 3u);
}

TEST(LazyKeys, DerivationIsOrderIndependent) {
  GroupDirectory dir(100, 5);
  KeyManager forward(dir, 77);
  KeyManager backward(dir, 77);
  // Touch keys in opposite orders; memoization must not change the values.
  for (GroupId g = 0; g < dir.group_count(); ++g) {
    (void)forward.group_key(g);
  }
  for (GroupId g = dir.group_count(); g-- > 0;) {
    (void)backward.group_key(g);
  }
  for (GroupId g = 0; g < dir.group_count(); ++g) {
    EXPECT_EQ(forward.group_key(g), backward.group_key(g));
  }
  EXPECT_EQ(forward.session_key(3, 9), backward.session_key(9, 3));
  EXPECT_EQ(forward.node_identity(5).public_key,
            backward.node_identity(5).public_key);
}

}  // namespace
}  // namespace odtn::groups
