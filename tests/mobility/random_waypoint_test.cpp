#include "mobility/random_waypoint.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/stats.hpp"

namespace odtn::mobility {
namespace {

RandomWaypointParams small_params() {
  RandomWaypointParams p;
  p.nodes = 10;
  p.width = 500.0;
  p.height = 400.0;
  p.min_speed = 1.0;
  p.max_speed = 3.0;
  p.min_pause = 0.0;
  p.max_pause = 20.0;
  p.range = 60.0;
  p.duration = 2000.0;
  p.tick = 1.0;
  return p;
}

TEST(RandomWaypoint, NodesStayWithinBounds) {
  auto p = small_params();
  util::Rng rng(1);
  RandomWaypointModel model(p, rng);
  for (int step = 0; step < 3000; ++step) {
    model.step();
    for (NodeId v = 0; v < p.nodes; ++v) {
      auto [x, y] = model.position(v);
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, p.width);
      EXPECT_GE(y, 0.0);
      EXPECT_LE(y, p.height);
    }
  }
}

TEST(RandomWaypoint, SpeedNeverExceedsMax) {
  auto p = small_params();
  util::Rng rng(2);
  RandomWaypointModel model(p, rng);
  std::vector<std::pair<double, double>> prev;
  for (NodeId v = 0; v < p.nodes; ++v) prev.push_back(model.position(v));
  for (int step = 0; step < 1000; ++step) {
    model.step();
    for (NodeId v = 0; v < p.nodes; ++v) {
      auto [x, y] = model.position(v);
      double moved = std::hypot(x - prev[v].first, y - prev[v].second);
      EXPECT_LE(moved, p.max_speed * p.tick + 1e-9);
      prev[v] = {x, y};
    }
  }
}

TEST(RandomWaypoint, NodesActuallyMove) {
  auto p = small_params();
  p.max_pause = 0.0;  // no pausing: everyone moves every tick
  p.min_pause = 0.0;
  util::Rng rng(3);
  RandomWaypointModel model(p, rng);
  auto [x0, y0] = model.position(0);
  for (int step = 0; step < 200; ++step) model.step();
  auto [x1, y1] = model.position(0);
  EXPECT_GT(std::hypot(x1 - x0, y1 - y0), 1.0);
}

TEST(RandomWaypoint, PairsInRangeMatchesDistances) {
  auto p = small_params();
  util::Rng rng(4);
  RandomWaypointModel model(p, rng);
  for (int step = 0; step < 50; ++step) model.step();
  auto pairs = model.pairs_in_range();
  // Verify against positions directly.
  std::set<std::pair<NodeId, NodeId>> reported(pairs.begin(), pairs.end());
  for (NodeId i = 0; i < p.nodes; ++i) {
    for (NodeId j = i + 1; j < p.nodes; ++j) {
      auto [xi, yi] = model.position(i);
      auto [xj, yj] = model.position(j);
      bool close = std::hypot(xi - xj, yi - yj) <= p.range;
      EXPECT_EQ(reported.count({i, j}) > 0, close)
          << "pair " << i << "," << j;
    }
  }
}

TEST(RandomWaypointTrace, EventsAreEntryTransitions) {
  auto p = small_params();
  util::Rng rng(5);
  auto trace = random_waypoint_trace(p, rng);
  ASSERT_GT(trace.event_count(), 10u);
  EXPECT_LE(trace.end_time(), p.duration + p.tick);
  // No duplicated simultaneous entry for a pair: consecutive events of the
  // same pair are separated in time.
  for (std::size_t i = 1; i < trace.events().size(); ++i) {
    const auto& a = trace.events()[i - 1];
    const auto& b = trace.events()[i];
    if (std::min(a.a, a.b) == std::min(b.a, b.b) &&
        std::max(a.a, a.b) == std::max(b.a, b.b)) {
      EXPECT_GT(b.time, a.time);
    }
  }
}

TEST(RandomWaypointTrace, DeterministicPerSeed) {
  auto p = small_params();
  util::Rng r1(6), r2(6);
  EXPECT_EQ(random_waypoint_trace(p, r1).events(),
            random_waypoint_trace(p, r2).events());
}

TEST(RandomWaypointTrace, DenserWhenRangeGrows) {
  auto p = small_params();
  util::Rng r1(7), r2(7);
  auto narrow = random_waypoint_trace(p, r1);
  p.range = 150.0;
  auto wide = random_waypoint_trace(p, r2);
  EXPECT_GT(wide.event_count(), narrow.event_count());
}

TEST(RandomWaypointTrace, InterContactTimesRoughlyExponential) {
  // The folklore behind Table II: RWP pairwise inter-contact times are
  // approximately exponential. Check the coefficient of variation of the
  // pooled inter-contact sample is near 1 (exponential: exactly 1).
  RandomWaypointParams p;
  p.nodes = 12;
  p.width = 800.0;
  p.height = 800.0;
  p.range = 50.0;
  p.duration = 40000.0;
  p.max_pause = 10.0;
  util::Rng rng(8);
  auto trace = random_waypoint_trace(p, rng);

  util::RunningStats icts;
  for (NodeId i = 0; i < p.nodes; ++i) {
    for (NodeId j = i + 1; j < p.nodes; ++j) {
      double last = -1.0;
      for (const auto& e : trace.events()) {
        NodeId lo = std::min(e.a, e.b), hi = std::max(e.a, e.b);
        if (lo != i || hi != j) continue;
        if (last >= 0.0) icts.add(e.time - last);
        last = e.time;
      }
    }
  }
  ASSERT_GT(icts.count(), 200u);
  double cv = icts.stddev() / icts.mean();
  EXPECT_GT(cv, 0.6);
  EXPECT_LT(cv, 1.5);
}

TEST(RandomWaypoint, Validation) {
  util::Rng rng(9);
  RandomWaypointParams p = small_params();
  p.nodes = 1;
  EXPECT_THROW(RandomWaypointModel(p, rng), std::invalid_argument);
  p = small_params();
  p.min_speed = 0.0;
  EXPECT_THROW(RandomWaypointModel(p, rng), std::invalid_argument);
  p = small_params();
  p.max_speed = 0.1;
  EXPECT_THROW(RandomWaypointModel(p, rng), std::invalid_argument);
  p = small_params();
  p.tick = 0.0;
  EXPECT_THROW(RandomWaypointModel(p, rng), std::invalid_argument);
  p = small_params();
  p.range = 0.0;
  EXPECT_THROW(RandomWaypointModel(p, rng), std::invalid_argument);
  RandomWaypointModel ok(small_params(), rng);
  EXPECT_THROW(ok.position(99), std::out_of_range);
}

}  // namespace
}  // namespace odtn::mobility
