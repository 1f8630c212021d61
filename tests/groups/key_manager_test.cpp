#include "groups/key_manager.hpp"

#include <gtest/gtest.h>

#include <set>

namespace odtn::groups {
namespace {

GroupDirectory make_dir() { return GroupDirectory(20, 5); }

TEST(KeyManager, GroupKeysAre32BytesAndDistinct) {
  auto dir = make_dir();
  KeyManager km(dir, 1);
  std::set<util::Bytes> keys;
  for (GroupId g = 0; g < dir.group_count(); ++g) {
    EXPECT_EQ(km.group_key(g).size(), 32u);
    EXPECT_TRUE(keys.insert(km.group_key(g)).second);
  }
}

TEST(KeyManager, InboxKeysDistinctFromGroupKeys) {
  auto dir = make_dir();
  KeyManager km(dir, 1);
  std::set<util::Bytes> all;
  for (GroupId g = 0; g < dir.group_count(); ++g) all.insert(km.group_key(g));
  for (NodeId v = 0; v < dir.node_count(); ++v) {
    EXPECT_EQ(km.inbox_key(v).size(), 32u);
    EXPECT_TRUE(all.insert(km.inbox_key(v)).second);
  }
}

TEST(KeyManager, DeterministicPerSeed) {
  auto dir = make_dir();
  KeyManager a(dir, 7), b(dir, 7);
  EXPECT_EQ(a.group_key(0), b.group_key(0));
  EXPECT_EQ(a.inbox_key(3), b.inbox_key(3));
  EXPECT_EQ(a.node_identity(5).public_key, b.node_identity(5).public_key);
}

TEST(KeyManager, DifferentSeedsDiffer) {
  auto dir = make_dir();
  KeyManager a(dir, 1), b(dir, 2);
  EXPECT_NE(a.group_key(0), b.group_key(0));
  EXPECT_NE(a.node_identity(0).public_key, b.node_identity(0).public_key);
}

TEST(KeyManager, IdentitiesAreValidX25519Pairs) {
  auto dir = make_dir();
  KeyManager km(dir, 3);
  for (NodeId v = 0; v < 5; ++v) {
    const auto& kp = km.node_identity(v);
    EXPECT_EQ(crypto::x25519_base(kp.private_key), kp.public_key);
  }
}

TEST(KeyManager, SessionKeySymmetric) {
  auto dir = make_dir();
  KeyManager km(dir, 4);
  EXPECT_EQ(km.session_key(2, 9), km.session_key(9, 2));
  EXPECT_EQ(km.session_key(2, 9).size(), 32u);
}

// An identity's public half is derived only when read; neither the keys
// nor the identities may depend on which call touched a node first.
TEST(KeyManager, SessionKeyIndependentOfIdentityOrder) {
  auto dir = make_dir();
  KeyManager session_first(dir, 11), identity_first(dir, 11);
  const util::Bytes k1 = session_first.session_key(2, 9);
  const crypto::KeyPair id2 = session_first.node_identity(2);
  const crypto::KeyPair id9 = session_first.node_identity(9);
  EXPECT_EQ(identity_first.node_identity(9).public_key, id9.public_key);
  EXPECT_EQ(identity_first.node_identity(2).public_key, id2.public_key);
  EXPECT_EQ(identity_first.node_identity(2).private_key, id2.private_key);
  EXPECT_EQ(identity_first.node_identity(9).private_key, id9.private_key);
  EXPECT_EQ(identity_first.session_key(9, 2), k1);
  // Node 2 was first touched only as the lo endpoint of session_key.
  EXPECT_EQ(crypto::x25519_base(id2.private_key), id2.public_key);
  EXPECT_EQ(crypto::x25519_base(id9.private_key), id9.public_key);
}

TEST(KeyManager, SessionKeysDifferPerPair) {
  auto dir = make_dir();
  KeyManager km(dir, 5);
  EXPECT_NE(km.session_key(0, 1), km.session_key(0, 2));
  EXPECT_NE(km.session_key(0, 1), km.session_key(1, 2));
}

TEST(KeyManager, SessionKeyCacheReturnsSameObject) {
  auto dir = make_dir();
  KeyManager km(dir, 6);
  const util::Bytes& k1 = km.session_key(0, 1);
  const util::Bytes& k2 = km.session_key(1, 0);
  EXPECT_EQ(&k1, &k2);
}

TEST(KeyManager, Validation) {
  auto dir = make_dir();
  KeyManager km(dir, 7);
  EXPECT_THROW(km.group_key(99), std::out_of_range);
  EXPECT_THROW(km.inbox_key(20), std::out_of_range);
  EXPECT_THROW(km.node_identity(20), std::out_of_range);
  EXPECT_THROW(km.session_key(0, 0), std::invalid_argument);
  EXPECT_THROW(km.session_key(0, 20), std::out_of_range);
}

TEST(KeyManager, Counts) {
  auto dir = make_dir();
  KeyManager km(dir, 8);
  EXPECT_EQ(km.node_count(), 20u);
  EXPECT_EQ(km.group_count(), 4u);
}

}  // namespace
}  // namespace odtn::groups
