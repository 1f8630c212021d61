// Parameterized property sweeps over the protocol parameter grid
// (K, g, L): invariants that must hold for EVERY configuration, not just
// the paper's defaults.
#include <gtest/gtest.h>

#include <set>

#include "analysis/cost.hpp"
#include "routing/onion_routing.hpp"
#include "util/stats.hpp"

namespace odtn::routing {
namespace {

struct SweepCase {
  std::size_t num_relays;
  std::size_t group_size;
  std::size_t copies;
};

std::string case_name(const ::testing::TestParamInfo<SweepCase>& info) {
  return "K" + std::to_string(info.param.num_relays) + "_g" +
         std::to_string(info.param.group_size) + "_L" +
         std::to_string(info.param.copies);
}

class ProtocolSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  static constexpr std::size_t kNodes = 40;

  ProtocolSweep()
      : rng_(0xabcd),
        graph_(graph::random_contact_graph(kNodes, rng_, 5.0, 50.0)),
        dir_(kNodes, GetParam().group_size, &rng_),
        keys_(dir_, 1),
        contacts_(graph_, rng_) {
    ctx_.directory = &dir_;
    ctx_.keys = &keys_;
    ctx_.codec = &codec_;
  }

  MessageSpec spec(double ttl) {
    MessageSpec s;
    s.src = 0;
    s.dst = kNodes - 1;
    s.ttl = ttl;
    s.num_relays = GetParam().num_relays;
    s.copies = GetParam().copies;
    return s;
  }

  DeliveryResult route(const MessageSpec& s) {
    if (s.copies == 1) {
      SingleCopyOnionRouting protocol(ctx_);
      return protocol.route(contacts_, s, rng_);
    }
    MultiCopyOnionRouting protocol(ctx_);
    return protocol.route(contacts_, s, rng_);
  }

  util::Rng rng_;
  graph::ContactGraph graph_;
  groups::GroupDirectory dir_;
  groups::KeyManager keys_;
  onion::OnionCodec codec_;
  sim::PoissonContactModel contacts_;
  OnionContext ctx_;
};

TEST_P(ProtocolSweep, DeliveredPathIsConsistent) {
  for (int trial = 0; trial < 15; ++trial) {
    auto r = route(spec(1e7));
    ASSERT_TRUE(r.delivered);
    ASSERT_EQ(r.relay_path.size(), GetParam().num_relays);
    ASSERT_EQ(r.relay_groups.size(), GetParam().num_relays);
    // Every relay belongs to its selected group. Endpoint exclusion only
    // applies when enough groups exist (otherwise selection falls back to
    // all groups, as documented in GroupDirectory::select_relay_groups).
    bool exclusion_possible =
        dir_.group_count() >= GetParam().num_relays + 2;
    for (std::size_t k = 0; k < r.relay_path.size(); ++k) {
      EXPECT_TRUE(dir_.in_group(r.relay_path[k], r.relay_groups[k]));
      if (exclusion_possible) {
        EXPECT_NE(r.relay_path[k], 0u);
        EXPECT_NE(r.relay_path[k], kNodes - 1);
      }
    }
    // Path nodes are distinct (groups are disjoint and dedup holds).
    std::set<NodeId> uniq(r.relay_path.begin(), r.relay_path.end());
    EXPECT_EQ(uniq.size(), r.relay_path.size());
  }
}

TEST_P(ProtocolSweep, CostNeverExceedsBound) {
  const auto& param = GetParam();
  std::size_t bound =
      param.copies == 1
          ? analysis::single_copy_cost(param.num_relays)
          : analysis::multi_copy_cost_bound(param.num_relays, param.copies);
  for (int trial = 0; trial < 15; ++trial) {
    auto r = route(spec(1e7));
    EXPECT_LE(r.transmissions, bound);
  }
}

TEST_P(ProtocolSweep, DelayPositiveAndFiniteOnDelivery) {
  auto r = route(spec(1e7));
  ASSERT_TRUE(r.delivered);
  EXPECT_GT(r.delay, 0.0);
  EXPECT_LT(r.delay, 1e7);
}

TEST_P(ProtocolSweep, ZeroTtlNeverDelivers) {
  auto r = route(spec(0.0));
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.transmissions, 0u);
}

TEST_P(ProtocolSweep, RelaysPerHopMatchesCopiesCap) {
  auto r = route(spec(1e7));
  ASSERT_EQ(r.relays_per_hop.size(), GetParam().num_relays);
  for (const auto& hop : r.relays_per_hop) {
    EXPECT_GE(hop.size(), 1u);
    EXPECT_LE(hop.size(), GetParam().copies);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProtocolSweep,
    ::testing::Values(SweepCase{1, 1, 1}, SweepCase{1, 5, 1},
                      SweepCase{3, 1, 1}, SweepCase{3, 5, 1},
                      SweepCase{3, 10, 1}, SweepCase{5, 5, 1},
                      SweepCase{8, 4, 1}, SweepCase{3, 5, 2},
                      SweepCase{3, 5, 5}, SweepCase{2, 10, 3},
                      SweepCase{5, 5, 3}, SweepCase{1, 5, 4},
                      // 4 groups < K + 2: relay selection falls back to all
                      // groups, so dst's own group can be a relay group.
                      SweepCase{3, 10, 3}),
    case_name);

}  // namespace
}  // namespace odtn::routing
