// routing::UtilityForwarder against a reference: the same model kept in
// ordered maps, the storage it used before its pair table and per-node
// failure scores. Every answer must match bit for bit.
#include "routing/utility_forwarder.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <utility>

#include "util/rng.hpp"

namespace odtn::routing {
namespace {

class MapUtilityForwarder {
 public:
  explicit MapUtilityForwarder(UtilityForwarderConfig config)
      : config_(config) {}

  void observe_contact(NodeId a, NodeId b, Time t) {
    Pair& p = pairs_[key(a, b)];
    if (p.last >= 0.0) {
      const double interval = t - p.last;
      p.ewma_interval = p.ewma_interval < 0.0
                            ? interval
                            : (1.0 - config_.ewma_alpha) * p.ewma_interval +
                                  config_.ewma_alpha * interval;
    }
    p.last = t;
  }

  double utility(NodeId v, NodeId d) const {
    if (v == d) return 0.0;
    auto it = pairs_.find(key(v, d));
    if (it == pairs_.end() || it->second.ewma_interval <= 0.0) return 0.0;
    return 1.0 / it->second.ewma_interval;
  }

  void observe_transfer_outcome(NodeId receiver, bool success) {
    if (config_.failure_penalty <= 0.0) return;
    double& s = failure_score_[receiver];
    s = (1.0 - config_.ewma_alpha) * s +
        config_.ewma_alpha * (success ? 0.0 : 1.0);
  }

  double failure_score(NodeId v) const {
    auto it = failure_score_.find(v);
    return it == failure_score_.end() ? 0.0 : it->second;
  }

  bool should_replicate(NodeId holder, NodeId receiver, NodeId dst,
                        std::size_t receiver_load,
                        std::size_t receiver_capacity) const {
    if (receiver_capacity != 0) {
      const double occupancy = static_cast<double>(receiver_load) /
                               static_cast<double>(receiver_capacity);
      if (occupancy >= config_.backoff_occupancy) return false;
    }
    double gain = utility(receiver, dst);
    if (config_.failure_penalty > 0.0) {
      const double discount =
          1.0 - config_.failure_penalty * failure_score(receiver);
      gain *= discount > 0.0 ? discount : 0.0;
    }
    const double have = utility(holder, dst);
    return gain >= have * config_.min_utility_ratio;
  }

 private:
  struct Pair {
    Time last = -1.0;
    double ewma_interval = -1.0;
  };
  static std::uint64_t key(NodeId a, NodeId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
  UtilityForwarderConfig config_;
  std::map<std::uint64_t, Pair> pairs_;
  std::map<NodeId, double> failure_score_;
};

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Feeds the same random stream of contacts (times non-decreasing, ties
// included) and transfer outcomes to both, checking every query against
// the reference as it goes.
void expect_matches_reference(std::size_t nodes, UtilityForwarderConfig cfg,
                              std::uint64_t seed, int steps) {
  UtilityForwarder fwd(nodes, cfg);
  MapUtilityForwarder ref(cfg);
  util::Rng rng(seed);
  auto node = [&] { return static_cast<NodeId>(rng.below(nodes)); };
  Time t = 0.0;
  for (int i = 0; i < steps; ++i) {
    if (!rng.chance(0.2)) t += rng.uniform(0.0, 3.0);
    const NodeId a = node();
    NodeId b = node();
    if (b == a) b = static_cast<NodeId>((a + 1) % nodes);
    fwd.observe_contact(a, b, t);
    ref.observe_contact(a, b, t);
    const NodeId r = node();
    const bool success = rng.chance(0.6);
    fwd.observe_transfer_outcome(r, success);
    ref.observe_transfer_outcome(r, success);

    const NodeId v = node();
    const NodeId d = node();
    const NodeId h = node();
    ASSERT_EQ(bits(fwd.utility(v, d)), bits(ref.utility(v, d)))
        << "step " << i << " utility(" << v << ", " << d << ")";
    ASSERT_EQ(bits(fwd.utility(a, b)), bits(ref.utility(a, b)))
        << "step " << i << " utility(" << a << ", " << b << ")";
    ASSERT_EQ(bits(fwd.failure_score(v)), bits(ref.failure_score(v)))
        << "step " << i << " failure_score(" << v << ")";
    const std::size_t capacity = rng.below(10);
    const std::size_t load = capacity == 0 ? 0 : rng.below(capacity + 1);
    ASSERT_EQ(fwd.should_replicate(h, v, d, load, capacity),
              ref.should_replicate(h, v, d, load, capacity))
        << "step " << i;
  }
  // Every pair and node once more at the end.
  for (NodeId v = 0; v < nodes; ++v) {
    ASSERT_EQ(bits(fwd.failure_score(v)), bits(ref.failure_score(v)));
    for (NodeId d = 0; d < nodes; ++d) {
      ASSERT_EQ(bits(fwd.utility(v, d)), bits(ref.utility(v, d)))
          << "utility(" << v << ", " << d << ")";
    }
  }
}

UtilityForwarderConfig feedback_config() {
  UtilityForwarderConfig cfg;
  cfg.ewma_alpha = 0.3;
  cfg.failure_penalty = 0.7;
  cfg.min_utility_ratio = 0.8;
  return cfg;
}

UtilityForwarderConfig spray_blind_config() {
  UtilityForwarderConfig cfg;
  cfg.min_utility_ratio = 0.0;
  cfg.backoff_occupancy = 2.0;
  return cfg;
}

TEST(UtilityForwarder, MatchesReferenceOnThreeNodes) {
  expect_matches_reference(3, {}, 1, 400);
  expect_matches_reference(3, feedback_config(), 2, 400);
}

// 150 nodes meet in up to 11175 pairs: the table grows many times past
// its first capacity while the stream runs.
TEST(UtilityForwarder, MatchesReferenceThroughTableGrowth) {
  expect_matches_reference(150, {}, 3, 20000);
  expect_matches_reference(150, feedback_config(), 4, 20000);
  expect_matches_reference(150, spray_blind_config(), 5, 20000);
}

}  // namespace
}  // namespace odtn::routing
