// odtn::traffic generator: determinism, validation, and arrival-process
// moment checks against the closed forms.
#include "traffic/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "support/fnv1a.hpp"
#include "util/stats.hpp"

namespace odtn::traffic {
namespace {

TrafficConfig one_flow(Arrival arrival, double rate, Time horizon) {
  FlowConfig flow;
  flow.arrival = arrival;
  flow.rate = rate;
  TrafficConfig config;
  config.flows.push_back(flow);
  config.horizon = horizon;
  return config;
}

TEST(TrafficPlan, IsAPureFunctionOfConfigNodesSeed) {
  TrafficConfig config = one_flow(Arrival::kPoisson, 0.2, 500.0);
  TrafficPlan a(config, 50, 42);
  TrafficPlan b(config, 50, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.messages()[i].spec.src, b.messages()[i].spec.src);
    EXPECT_EQ(a.messages()[i].spec.dst, b.messages()[i].spec.dst);
    EXPECT_EQ(a.messages()[i].spec.start, b.messages()[i].spec.start);
  }
  TrafficPlan c(config, 50, 43);
  EXPECT_TRUE(c.size() != a.size() ||
              c.messages()[0].spec.start != a.messages()[0].spec.start);
}

TEST(TrafficPlan, MessagesAreTimeOrderedWithDistinctEndpoints) {
  TrafficConfig config = one_flow(Arrival::kPoisson, 0.5, 1000.0);
  config.flows.push_back(config.flows[0]);  // two flows, same process
  TrafficPlan plan(config, 20, 7);
  ASSERT_GT(plan.size(), 0u);
  Time prev = 0.0;
  for (const TrafficMessage& m : plan.messages()) {
    EXPECT_GE(m.spec.start, prev);
    prev = m.spec.start;
    EXPECT_NE(m.spec.src, m.spec.dst);
    EXPECT_LT(m.spec.src, 20u);
    EXPECT_LT(m.spec.dst, 20u);
    EXPECT_LT(m.flow, 2u);
  }
}

TEST(TrafficPlan, FlowTemplateIsStampedOntoEveryMessage) {
  TrafficConfig config = one_flow(Arrival::kPoisson, 0.5, 400.0);
  config.flows[0].priority = 3;
  config.flows[0].num_relays = 5;
  config.flows[0].copies = 2;
  config.flows[0].ttl = 123.0;
  config.flows[0].src_lo = 2;
  config.flows[0].src_hi = 4;
  config.flows[0].dst_lo = 10;
  config.flows[0].dst_hi = 12;
  TrafficPlan plan(config, 20, 9);
  ASSERT_GT(plan.size(), 0u);
  for (const TrafficMessage& m : plan.messages()) {
    EXPECT_EQ(m.priority, 3);
    EXPECT_EQ(m.spec.num_relays, 5u);
    EXPECT_EQ(m.spec.copies, 2u);
    EXPECT_DOUBLE_EQ(m.spec.ttl, 123.0);
    EXPECT_TRUE(m.spec.src == 2 || m.spec.src == 3);
    EXPECT_TRUE(m.spec.dst == 10 || m.spec.dst == 11);
  }
  const auto specs = plan.specs();
  const auto priorities = plan.priorities();
  ASSERT_EQ(specs.size(), plan.size());
  ASSERT_EQ(priorities.size(), plan.size());
  EXPECT_EQ(priorities.front(), 3);
}

// Poisson counts over [0, H): E[N] = Var[N] = rate * H. Sample moments
// over independent seeds must land near the closed form.
TEST(TrafficPlan, PoissonCountMatchesClosedFormMoments) {
  const double rate = 0.8;
  const double horizon = 500.0;  // E[N] = 400
  TrafficConfig config = one_flow(Arrival::kPoisson, rate, horizon);
  util::RunningStats counts;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    counts.add(static_cast<double>(TrafficPlan(config, 10, seed).size()));
  }
  const double expect = rate * horizon;
  EXPECT_NEAR(counts.mean(), expect, 0.02 * expect);
  EXPECT_NEAR(counts.variance(), expect, 0.25 * expect);
}

// Deterministic arrivals are exactly paced: start_i = (i + 1) / rate.
TEST(TrafficPlan, DeterministicArrivalsAreExactlyPaced) {
  const double rate = 0.25;
  TrafficConfig config = one_flow(Arrival::kDeterministic, rate, 1000.0);
  TrafficPlan plan(config, 10, 5);
  ASSERT_EQ(plan.size(), 249u);  // gap, 2*gap, ..., < 1000
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_NEAR(plan.messages()[i].spec.start,
                static_cast<double>(i + 1) / rate, 1e-6);
  }
}

// MMPP is modulated so its *long-run* rate equals `rate`; over a long
// horizon the count concentrates there. Its short-window counts must be
// over-dispersed relative to Poisson (that is what "bursty" means).
TEST(TrafficPlan, MmppLongRunRateMatchesConfiguredRate) {
  const double rate = 0.5;
  const double horizon = 100000.0;  // many ON/OFF cycles
  TrafficConfig config = one_flow(Arrival::kMmpp, rate, horizon);
  util::RunningStats counts;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    counts.add(static_cast<double>(TrafficPlan(config, 10, seed).size()));
  }
  EXPECT_NEAR(counts.mean(), rate * horizon, 0.05 * rate * horizon);
}

TEST(TrafficPlan, MmppIsOverdispersedVsPoisson) {
  const double rate = 0.5;
  const double horizon = 400.0;
  TrafficConfig mmpp = one_flow(Arrival::kMmpp, rate, horizon);
  TrafficConfig poisson = one_flow(Arrival::kPoisson, rate, horizon);
  util::RunningStats mmpp_counts, poisson_counts;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    mmpp_counts.add(static_cast<double>(TrafficPlan(mmpp, 10, seed).size()));
    poisson_counts.add(
        static_cast<double>(TrafficPlan(poisson, 10, seed).size()));
  }
  EXPECT_GT(mmpp_counts.variance(), 1.5 * poisson_counts.variance());
}

// The workload BM_TrafficGen/10 times (bench/micro_sim.cpp): Poisson,
// deterministic and MMPP flows at rate 10/3 each (priorities 0, 1 and 2)
// over a 600-unit horizon on 100 nodes, seed 7. Its size and an FNV-1a
// digest of every message's start, src, dst and priority are pinned, so a
// change to the generator's output or amount of work fails here exactly,
// where the wall-time gate sees it only through noise.
TEST(TrafficPlan, BenchWorkloadPinned) {
  TrafficConfig config = one_flow(Arrival::kPoisson, 10.0 / 3.0, 600.0);
  FlowConfig flow = config.flows[0];
  flow.arrival = Arrival::kDeterministic;
  flow.priority = 1;
  config.flows.push_back(flow);
  flow.arrival = Arrival::kMmpp;
  flow.priority = 2;
  config.flows.push_back(flow);
  TrafficPlan plan(config, 100, 7);

  test_support::Fnv1a h;
  for (const TrafficMessage& m : plan.messages()) {
    h.f64(m.spec.start);
    h.u64(m.spec.src);
    h.u64(m.spec.dst);
    h.u64(m.priority);
  }
  EXPECT_EQ(plan.size(), 4562u);
  EXPECT_EQ(h.value(), 0x5c176f78a7bbdcc6ULL);
}

TEST(TrafficConfig, OfferedRateSumsFlows) {
  TrafficConfig config = one_flow(Arrival::kPoisson, 0.25, 100.0);
  config.flows.push_back(config.flows[0]);
  config.flows[1].rate = 0.5;
  EXPECT_DOUBLE_EQ(config.offered_rate(), 0.75);
}

TEST(TrafficConfig, DefaultIsDisabledAndValidationCatchesBadKnobs) {
  EXPECT_FALSE(TrafficConfig{}.enabled());

  TrafficConfig ok = one_flow(Arrival::kPoisson, 1.0, 10.0);
  EXPECT_TRUE(ok.enabled());
  EXPECT_NO_THROW(ok.validate(10));

  TrafficConfig bad = ok;
  bad.flows[0].rate = 0.0;
  EXPECT_THROW(bad.validate(10), std::invalid_argument);

  bad = ok;
  bad.flows[0].ttl = -1.0;
  EXPECT_THROW(bad.validate(10), std::invalid_argument);

  bad = ok;
  bad.flows[0].copies = 0;
  EXPECT_THROW(bad.validate(10), std::invalid_argument);

  bad = ok;
  bad.flows[0].src_hi = 11;  // past node count
  EXPECT_THROW(bad.validate(10), std::invalid_argument);

  bad = ok;  // single-node src range == single-node dst range
  bad.flows[0].src_lo = 3;
  bad.flows[0].src_hi = 4;
  bad.flows[0].dst_lo = 3;
  bad.flows[0].dst_hi = 4;
  EXPECT_THROW(bad.validate(10), std::invalid_argument);

  bad = one_flow(Arrival::kMmpp, 1.0, 10.0);
  bad.flows[0].burst_factor = 0.5;  // < 1
  EXPECT_THROW(bad.validate(10), std::invalid_argument);

  bad = one_flow(Arrival::kMmpp, 1.0, 10.0);
  // OFF-state rate would need to be negative to average out.
  bad.flows[0].burst_factor = 100.0;
  EXPECT_THROW(bad.validate(10), std::invalid_argument);

  TrafficConfig no_flows;
  no_flows.horizon = 10.0;
  EXPECT_THROW(no_flows.validate(10), std::invalid_argument);
}

TEST(TrafficConfig, FlowsNeedAFinitePositiveHorizon) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double horizon : {0.0, -5.0, nan, inf}) {
    TrafficConfig bad = one_flow(Arrival::kPoisson, 1.0, horizon);
    EXPECT_THROW(bad.validate(10), std::invalid_argument) << horizon;
  }
  TrafficConfig no_flows;
  no_flows.horizon = nan;
  EXPECT_THROW(no_flows.validate(10), std::invalid_argument);

  TrafficConfig bad = one_flow(Arrival::kMmpp, 1.0, 10.0);
  bad.flows[0].burst_factor = nan;
  EXPECT_THROW(bad.validate(10), std::invalid_argument);
}

TEST(TrafficArrival, NamesRoundTrip) {
  EXPECT_EQ(parse_arrival("poisson"), Arrival::kPoisson);
  EXPECT_EQ(parse_arrival("deterministic"), Arrival::kDeterministic);
  EXPECT_EQ(parse_arrival("mmpp"), Arrival::kMmpp);
  EXPECT_STREQ(arrival_name(Arrival::kMmpp), "mmpp");
  EXPECT_THROW(parse_arrival("bursty"), std::invalid_argument);
}

}  // namespace
}  // namespace odtn::traffic
