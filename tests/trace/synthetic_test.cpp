#include "trace/synthetic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "graph/contact_graph.hpp"

namespace odtn::trace {
namespace {

bool in_any_window(double t, const std::vector<std::pair<double, double>>& ws) {
  double tod = std::fmod(t, kSecondsPerDay);
  for (auto [s, e] : ws) {
    if (tod >= s && tod < e) return true;
  }
  return false;
}

TEST(DiurnalTrace, EventsOnlyInActiveWindows) {
  DiurnalTraceParams p;
  p.nodes = 6;
  p.days = 3;
  p.daily_windows = {{9 * 3600.0, 17 * 3600.0}};
  p.min_ict = 300.0;
  p.max_ict = 1200.0;
  util::Rng rng(1);
  auto t = make_diurnal_trace(p, rng);
  ASSERT_GT(t.event_count(), 0u);
  for (const auto& e : t.events()) {
    EXPECT_TRUE(in_any_window(e.time, p.daily_windows))
        << "event at " << e.time;
    EXPECT_LT(e.time, p.days * kSecondsPerDay);
  }
}

TEST(DiurnalTrace, MultipleWindowsRespected) {
  DiurnalTraceParams p;
  p.nodes = 5;
  p.days = 2;
  p.daily_windows = {{9 * 3600.0, 12 * 3600.0}, {14 * 3600.0, 17 * 3600.0}};
  p.min_ict = 200.0;
  p.max_ict = 800.0;
  util::Rng rng(2);
  auto t = make_diurnal_trace(p, rng);
  for (const auto& e : t.events()) {
    EXPECT_TRUE(in_any_window(e.time, p.daily_windows));
  }
  // Some events should land in each window.
  bool morning = false, afternoon = false;
  for (const auto& e : t.events()) {
    double tod = std::fmod(e.time, kSecondsPerDay);
    if (tod < 13 * 3600.0) morning = true;
    else afternoon = true;
  }
  EXPECT_TRUE(morning);
  EXPECT_TRUE(afternoon);
}

TEST(DiurnalTrace, EventCountMatchesRates) {
  // One pair, rate 1/100s over 8h/day * 2 days = 57600 active seconds
  // -> ~576 events.
  DiurnalTraceParams p;
  p.nodes = 2;
  p.days = 2;
  p.min_ict = 100.0;
  p.max_ict = 100.0;
  util::Rng rng(3);
  auto t = make_diurnal_trace(p, rng);
  EXPECT_NEAR(static_cast<double>(t.event_count()), 576.0, 100.0);
}

TEST(DiurnalTrace, PairProbabilityZeroGivesEmptyTrace) {
  DiurnalTraceParams p;
  p.nodes = 5;
  p.pair_probability = 0.0;
  util::Rng rng(4);
  EXPECT_EQ(make_diurnal_trace(p, rng).event_count(), 0u);
}

TEST(DiurnalTrace, Validation) {
  util::Rng rng(5);
  DiurnalTraceParams p;
  p.nodes = 1;
  EXPECT_THROW(make_diurnal_trace(p, rng), std::invalid_argument);
  p = {};
  p.days = 0;
  EXPECT_THROW(make_diurnal_trace(p, rng), std::invalid_argument);
  p = {};
  p.daily_windows = {{17 * 3600.0, 9 * 3600.0}};
  EXPECT_THROW(make_diurnal_trace(p, rng), std::invalid_argument);
  p = {};
  p.daily_windows = {{0.0, kSecondsPerDay + 1}};
  EXPECT_THROW(make_diurnal_trace(p, rng), std::invalid_argument);
  p = {};
  p.min_ict = 0.0;
  EXPECT_THROW(make_diurnal_trace(p, rng), std::invalid_argument);
  p = {};
  p.pair_probability = 1.5;
  EXPECT_THROW(make_diurnal_trace(p, rng), std::invalid_argument);
}

TEST(CambridgeLike, MatchesPaperScale) {
  auto t = make_cambridge_like(7);
  EXPECT_EQ(t.node_count(), 12u);  // 12 iMotes in Experiment 2
  EXPECT_GT(t.event_count(), 1000u);
  EXPECT_LT(t.end_time(), 5 * kSecondsPerDay);
  // Dense: every pair should have contacts.
  auto rates = t.train(0.0).rates;
  std::size_t connected = 0;
  for (NodeId i = 0; i < 12; ++i) {
    for (NodeId j = i + 1; j < 12; ++j) {
      if (rates.rate(i, j) > 0.0) ++connected;
    }
  }
  EXPECT_EQ(connected, 66u);
}

TEST(CambridgeLike, DeterministicPerSeed) {
  EXPECT_EQ(make_cambridge_like(1).events(), make_cambridge_like(1).events());
  EXPECT_NE(make_cambridge_like(1).event_count(),
            make_cambridge_like(2).event_count());
}

TEST(InfocomLike, MatchesPaperScale) {
  auto t = make_infocom_like(7);
  EXPECT_EQ(t.node_count(), 41u);  // 41 iMotes in Experiment 3
  EXPECT_GT(t.event_count(), 100u);
  EXPECT_LT(t.end_time(), 3 * kSecondsPerDay);
}

TEST(InfocomLike, SparserThanCambridge) {
  auto inf = make_infocom_like(9);
  auto rates = inf.train(0.0).rates;
  std::size_t connected = 0, total = 0;
  for (NodeId i = 0; i < 41; ++i) {
    for (NodeId j = i + 1; j < 41; ++j) {
      ++total;
      if (rates.rate(i, j) > 0.0) ++connected;
    }
  }
  double density = static_cast<double>(connected) / total;
  EXPECT_LT(density, 0.85);
  EXPECT_GT(density, 0.2);
}

TEST(SamplePoissonTrace, RejectsNonFiniteOrNonPositiveHorizon) {
  util::Rng rng(1);
  const auto graph = graph::random_contact_graph(10, rng);
  for (double horizon :
       {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(sample_poisson_trace(graph, horizon, rng),
                 std::invalid_argument)
        << "horizon " << horizon;
  }
}

TEST(InfocomLike, HasNightGaps) {
  auto t = make_infocom_like(11);
  // No events between 17:30 and 9:00 next day.
  for (const auto& e : t.events()) {
    double tod = std::fmod(e.time, kSecondsPerDay);
    EXPECT_TRUE((tod >= 9 * 3600.0 && tod < 12.5 * 3600.0) ||
                (tod >= 14 * 3600.0 && tod < 17.5 * 3600.0))
        << "event at time-of-day " << tod;
  }
}

}  // namespace
}  // namespace odtn::trace
