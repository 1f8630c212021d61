// Unit tests for the fault-injection model: which knobs enable the plan,
// and the determinism contract of FaultPlan (a plan is a pure function of
// (config, node_count, horizon, seed)). The knobs' ranges are rows of the
// knob table (tests/core/config_schema_test.cpp).
#include "faults/faults.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

namespace odtn::faults {
namespace {

FaultConfig churn_config() {
  FaultConfig cfg;
  cfg.mean_uptime = 50.0;
  cfg.mean_downtime = 10.0;
  return cfg;
}

TEST(FaultConfig, EnabledReflectsKnobs) {
  FaultConfig cfg;
  EXPECT_FALSE(cfg.enabled());
  cfg.p_run_abort = 1.0;  // engine-level knob: no network plan needed
  EXPECT_FALSE(cfg.enabled());

  cfg = FaultConfig{};
  cfg.p_fail = 0.1;
  EXPECT_TRUE(cfg.enabled());
  EXPECT_TRUE(cfg.link_faults_enabled());

  cfg = FaultConfig{};
  cfg.gilbert_elliott = GilbertElliott{};
  EXPECT_TRUE(cfg.enabled());

  cfg = churn_config();
  EXPECT_TRUE(cfg.enabled());
  EXPECT_TRUE(cfg.churn_enabled());

  cfg = FaultConfig{};
  cfg.blackhole_fraction = 0.2;
  EXPECT_TRUE(cfg.enabled());
}

TEST(FaultPlan, RejectsEmptyNetwork) {
  EXPECT_THROW(FaultPlan(FaultConfig{}, 0, 100.0, 1), std::invalid_argument);
}

TEST(FaultPlan, ZeroKnobPlanIsTransparent) {
  // An all-default plan behaves exactly like "no faults": everything is up,
  // nothing crashes, no transfer fails, no blackholes.
  FaultPlan plan(FaultConfig{}, 10, 1000.0, 42);
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_TRUE(plan.node_up(v, 0.0));
    EXPECT_TRUE(plan.node_up(v, 999.0));
    EXPECT_EQ(plan.next_crash_after(v, 0.0), kTimeInfinity);
    EXPECT_FALSE(plan.is_blackhole(v));
  }
  EXPECT_EQ(plan.blackhole_count(), 0u);
  EXPECT_TRUE(plan.crashes().empty());
  EXPECT_FALSE(plan.transfer_fails(0, 1));
}

TEST(FaultPlan, ChurnScheduleIsDeterministic) {
  FaultPlan a(churn_config(), 20, 2000.0, 7);
  FaultPlan b(churn_config(), 20, 2000.0, 7);
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].time, b.crashes()[i].time);
    EXPECT_EQ(a.crashes()[i].node, b.crashes()[i].node);
  }
  for (NodeId v = 0; v < 20; ++v) {
    for (Time t = 0.0; t < 2000.0; t += 37.0) {
      EXPECT_EQ(a.node_up(v, t), b.node_up(v, t));
    }
  }
  FaultPlan c(churn_config(), 20, 2000.0, 8);
  bool any_difference = false;
  for (NodeId v = 0; v < 20 && !any_difference; ++v) {
    for (Time t = 0.0; t < 2000.0; t += 37.0) {
      if (a.node_up(v, t) != c.node_up(v, t)) {
        any_difference = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlan, CrashesMatchUpDownTransitions) {
  FaultPlan plan(churn_config(), 15, 3000.0, 3);
  ASSERT_FALSE(plan.crashes().empty());
  Time prev = 0.0;
  for (const auto& crash : plan.crashes()) {
    EXPECT_GE(crash.time, prev);  // time-sorted
    prev = crash.time;
    // Just before a crash the node is up; just after it is down.
    EXPECT_TRUE(plan.node_up(crash.node, crash.time - 1e-9));
    EXPECT_FALSE(plan.node_up(crash.node, crash.time + 1e-9));
  }
}

TEST(FaultPlan, CrashedInWindowSemantics) {
  FaultPlan plan(churn_config(), 15, 3000.0, 3);
  const auto& first = plan.crashes().front();
  // Window is (t0, t1]: the crash instant counts, the left edge does not.
  EXPECT_TRUE(plan.crashed_in(first.node, 0.0, first.time));
  EXPECT_FALSE(plan.crashed_in(first.node, first.time, first.time));
  Time next = plan.next_crash_after(first.node, first.time);
  EXPECT_GT(next, first.time);
  EXPECT_FALSE(plan.crashed_in(first.node, first.time, next - 1e-9));
}

TEST(FaultPlan, BlackholeCountAndExemptions) {
  FaultConfig cfg;
  cfg.blackhole_fraction = 0.3;
  FaultPlan plan(cfg, 20, 100.0, 11);
  EXPECT_EQ(plan.blackhole_count(), 6u);  // floor(0.3 * 20)
  std::size_t marked = 0;
  for (NodeId v = 0; v < 20; ++v) marked += plan.is_blackhole(v);
  EXPECT_EQ(marked, 6u);

  // Exempt nodes are never selected, at any fraction.
  cfg.blackhole_fraction = 1.0;
  const NodeId exempt[2] = {0, 19};
  FaultPlan exempted(cfg, 20, 100.0, 11, exempt);
  EXPECT_FALSE(exempted.is_blackhole(0));
  EXPECT_FALSE(exempted.is_blackhole(19));
  EXPECT_EQ(exempted.blackhole_count(), 18u);

  // Same seed picks the same set.
  FaultPlan again(cfg, 20, 100.0, 11, exempt);
  for (NodeId v = 0; v < 20; ++v) {
    EXPECT_EQ(exempted.is_blackhole(v), again.is_blackhole(v));
  }
}

TEST(FaultPlan, IidTransferFailureRates) {
  FaultConfig cfg;
  cfg.p_fail = 1.0;
  FaultPlan always(cfg, 5, 100.0, 1);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(always.transfer_fails(0, 1));

  cfg.p_fail = 0.25;
  FaultPlan sometimes(cfg, 5, 100.0, 1);
  int failures = 0;
  for (int i = 0; i < 4000; ++i) failures += sometimes.transfer_fails(0, 1);
  EXPECT_NEAR(static_cast<double>(failures) / 4000.0, 0.25, 0.03);

  // Same seed, same query order: identical failure sequence.
  FaultPlan x(cfg, 5, 100.0, 9), y(cfg, 5, 100.0, 9);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(x.transfer_fails(1, 2), y.transfer_fails(1, 2));
  }
}

TEST(FaultPlan, GilbertElliottCorrelatedLoss) {
  // A deterministic chain: every attempt flips the link state, failures
  // happen exactly in the bad state — so attempts alternate fail/succeed.
  FaultConfig cfg;
  cfg.gilbert_elliott = GilbertElliott{/*p_good_to_bad=*/1.0,
                                       /*p_bad_to_good=*/1.0,
                                       /*p_fail_good=*/0.0,
                                       /*p_fail_bad=*/1.0};
  FaultPlan plan(cfg, 4, 100.0, 5);
  EXPECT_TRUE(plan.transfer_fails(0, 1));   // good -> bad, fail
  EXPECT_FALSE(plan.transfer_fails(0, 1));  // bad -> good, succeed
  EXPECT_TRUE(plan.transfer_fails(0, 1));
  // The chain is per unordered link: (2, 3) starts fresh in the good state,
  // and (1, 0) continues the (0, 1) chain.
  EXPECT_TRUE(plan.transfer_fails(2, 3));
  EXPECT_FALSE(plan.transfer_fails(1, 0));

  // A sticky bad state produces bursts: once bad, stays bad.
  cfg.gilbert_elliott = GilbertElliott{/*p_good_to_bad=*/1.0,
                                       /*p_bad_to_good=*/0.0,
                                       /*p_fail_good=*/0.0,
                                       /*p_fail_bad=*/1.0};
  FaultPlan sticky(cfg, 4, 100.0, 5);
  for (int i = 0; i < 20; ++i) EXPECT_TRUE(sticky.transfer_fails(0, 1));
}

TEST(FaultPlan, StationaryChurnStartHitsDutyCycle) {
  // With mean up 50 / mean down 10 the stationary up-probability is 5/6;
  // sampling many (node, time) points must land near it.
  FaultPlan plan(churn_config(), 400, 4000.0, 13);
  std::size_t up = 0, total = 0;
  for (NodeId v = 0; v < 400; ++v) {
    for (Time t = 100.0; t < 4000.0; t += 379.0) {
      up += plan.node_up(v, t);
      ++total;
    }
  }
  double fraction = static_cast<double>(up) / static_cast<double>(total);
  EXPECT_NEAR(fraction, 50.0 / 60.0, 0.03);
}

// The gate's per-node flip cursors answer what the plan's binary search
// answers, for any non-decreasing query times (ties at flip instants and
// repeated times included), and count the same suppressions.
TEST(FaultGate, ContactUpMatchesNodeUp) {
  constexpr std::size_t kNodes = 12;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    FaultConfig cfg;
    cfg.mean_uptime = rng.uniform(5.0, 80.0);
    cfg.mean_downtime = rng.uniform(2.0, 40.0);
    FaultPlan plan(cfg, kNodes, 1000.0, seed);
    // (time, an endpoint): every flip instant with its own node, and
    // random instants (past the horizon too) with a random node.
    std::vector<std::pair<Time, NodeId>> queries = {{0.0, 0}};
    for (NodeId v = 0; v < kNodes; ++v) {
      for (Time f : plan.flips(v)) queries.emplace_back(f, v);
    }
    for (int i = 0; i < 2000; ++i) {
      queries.emplace_back(rng.uniform(0.0, 1100.0),
                           static_cast<NodeId>(rng.below(kNodes)));
    }
    std::sort(queries.begin(), queries.end());
    FaultGate gate(&plan, nullptr);
    std::size_t suppressed = 0;
    for (const auto& [t, a] : queries) {
      for (int rep = 0; rep < 2; ++rep) {
        const auto b = static_cast<NodeId>(rng.below(kNodes));
        const bool up = plan.node_up(a, t) && plan.node_up(b, t);
        suppressed += !up;
        ASSERT_EQ(gate.contact_up(a, b, t), up)
            << "seed " << seed << " t " << t << " (" << a << ", " << b << ")";
      }
    }
    EXPECT_EQ(gate.suppressed(), suppressed) << "seed " << seed;
    EXPECT_GT(suppressed, 0u) << "seed " << seed;
  }
}

TEST(FaultGate, DecreasingQueryTimeThrows) {
  FaultPlan churn(churn_config(), 4, 1000.0, 3);
  FaultPlan quiet(FaultConfig{}, 4, 1000.0, 3);
  for (FaultPlan* plan : {&churn, &quiet, static_cast<FaultPlan*>(nullptr)}) {
    FaultGate gate(plan, nullptr);
    gate.contact_up(0, 1, 10.0);
    gate.contact_up(2, 3, 10.0);  // an equal time is fine
    EXPECT_THROW(gate.contact_up(0, 1, 9.5), std::logic_error);
  }
}

TEST(InjectedFault, IsARuntimeError) {
  InjectedFault fault("boom");
  EXPECT_STREQ(fault.what(), "boom");
  const std::runtime_error& base = fault;
  EXPECT_STREQ(base.what(), "boom");
}

}  // namespace
}  // namespace odtn::faults
