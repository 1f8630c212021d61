// Integration tests: the experiment engine must reproduce the paper's
// analysis-vs-simulation agreement on a small scale, and the parallel
// engine must be bit-identical to the serial one.
#include "core/experiment.hpp"

#include "adversary/adversary.hpp"
#include "analysis/anonymity.hpp"
#include "routing/onion_routing.hpp"

#include <gtest/gtest.h>

#include "trace/synthetic.hpp"

namespace odtn::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.nodes = 40;
  cfg.runs = 120;
  cfg.seed = 7;
  return cfg;
}

ExperimentResult run_random(const ExperimentConfig& cfg) {
  return Experiment(cfg).run(RandomGraphScenario{});
}

ExperimentResult run_on_trace(const ExperimentConfig& cfg,
                              const trace::ContactTrace& trace) {
  return Experiment(cfg).run(TraceScenario{&trace});
}

// Every metric accumulator equal, bitwise.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.delivered_runs, b.delivered_runs);
  auto eq = [](const util::RunningStats& x, const util::RunningStats& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_EQ(x.mean(), y.mean());
    EXPECT_EQ(x.variance(), y.variance());
    EXPECT_EQ(x.min(), y.min());
    EXPECT_EQ(x.max(), y.max());
  };
  eq(a.sim_delivered, b.sim_delivered);
  eq(a.sim_delay, b.sim_delay);
  eq(a.sim_transmissions, b.sim_transmissions);
  eq(a.sim_traceable, b.sim_traceable);
  eq(a.sim_anonymity, b.sim_anonymity);
  eq(a.ana_delivery, b.ana_delivery);
  eq(a.ana_traceable_paper, b.ana_traceable_paper);
  eq(a.ana_traceable_exact, b.ana_traceable_exact);
  eq(a.ana_anonymity, b.ana_anonymity);
  eq(a.ana_cost_bound, b.ana_cost_bound);
  eq(a.ana_cost_non_anonymous, b.ana_cost_non_anonymous);
}

TEST(Experiment, DeterministicPerSeed) {
  auto a = run_random(small_config());
  auto b = run_random(small_config());
  expect_identical(a, b);
}

TEST(Experiment, DifferentSeedsDiffer) {
  auto a = run_random(small_config());
  auto cfg = small_config();
  cfg.seed = 8;
  auto b = run_random(cfg);
  EXPECT_NE(a.sim_delay.mean(), b.sim_delay.mean());
}

TEST(Experiment, ThreadCountDoesNotChangeRandomGraphResults) {
  // The tentpole invariant: run i is seeded from (seed, i) and outcomes
  // fold in run order, so any thread count yields bit-identical metrics.
  auto cfg = small_config();
  cfg.runs = 64;
  cfg.ttl = 400.0;
  cfg.threads = 1;
  auto serial = run_random(cfg);
  for (std::size_t threads : {2u, 8u}) {
    cfg.threads = threads;
    auto parallel = run_random(cfg);
    expect_identical(serial, parallel);
  }
}

TEST(Experiment, ThreadCountDoesNotChangeTraceResults) {
  auto trace = trace::make_cambridge_like(3);
  ExperimentConfig cfg;
  cfg.group_size = 1;
  cfg.ttl = 3600.0;
  cfg.runs = 48;
  cfg.seed = 5;
  cfg.threads = 1;
  auto serial = run_on_trace(cfg, trace);
  cfg.threads = 8;
  auto parallel = run_on_trace(cfg, trace);
  expect_identical(serial, parallel);
}

TEST(Experiment, AutoThreadsMatchesSerial) {
  auto cfg = small_config();
  cfg.runs = 32;
  cfg.threads = 1;
  auto serial = run_random(cfg);
  cfg.threads = 0;  // all hardware threads
  auto automatic = run_random(cfg);
  expect_identical(serial, automatic);
}

TEST(Experiment, MultiCopyParallelIdenticalToSerial) {
  auto cfg = small_config();
  cfg.runs = 40;
  cfg.copies = 3;
  cfg.ttl = 400.0;
  cfg.threads = 1;
  auto serial = run_random(cfg);
  cfg.threads = 4;
  auto parallel = run_random(cfg);
  expect_identical(serial, parallel);
}

TEST(Experiment, ScenarioVariantDispatches) {
  auto cfg = small_config();
  cfg.runs = 30;
  Experiment exp(cfg);
  Scenario random = RandomGraphScenario{};
  auto r = exp.run(random);
  EXPECT_EQ(r.sim_delivered.count(), 30u);

  auto trace = trace::make_cambridge_like(3);
  ExperimentConfig tc;
  tc.group_size = 1;
  tc.runs = 20;
  Scenario on_trace = TraceScenario{&trace};
  auto t = Experiment(tc).run(on_trace);
  EXPECT_EQ(t.sim_delivered.count(), 20u);
}

TEST(Experiment, NullTraceRejected) {
  EXPECT_THROW(Experiment(small_config()).run(TraceScenario{nullptr}),
               std::invalid_argument);
}

TEST(Experiment, WallTimeRecorded) {
  auto cfg = small_config();
  cfg.runs = 10;
  auto r = run_random(cfg);
  EXPECT_GT(r.wall_time_s, 0.0);
}

TEST(Experiment, ResultMergeCombinesShards) {
  // Two disjoint halves of a run series merge into exactly the accumulator
  // counts of the whole; means agree to floating-point accuracy.
  auto cfg = small_config();
  cfg.runs = 60;
  auto whole = run_random(cfg);

  auto first = cfg;
  first.runs = 30;
  auto a = Experiment(first).run(RandomGraphScenario{});
  auto second = cfg;
  second.runs = 30;
  second.seed = 999;  // a different series; merging only needs mergeability
  auto b = Experiment(second).run(RandomGraphScenario{});

  auto merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.sim_delivered.count(), whole.sim_delivered.count());
  EXPECT_EQ(merged.ana_delivery.count(), whole.ana_delivery.count());
  EXPECT_EQ(merged.ana_cost_bound.count(), 60u);
  EXPECT_EQ(merged.delivered_runs, a.delivered_runs + b.delivered_runs);
}

TEST(Experiment, AnalysisTracksSimulationDeliveryRate) {
  // The core claim of the paper (Figs. 4-5): Eq. 6 approximates the
  // simulated delivery rate.
  for (double ttl : {120.0, 480.0, 1800.0}) {
    auto cfg = small_config();
    cfg.runs = 400;
    cfg.ttl = ttl;
    auto r = run_random(cfg);
    // The paper's Figs. 4-5 show gaps of up to ~0.1 between analysis and
    // simulation at mid deadlines; the trend, not equality, is the claim.
    EXPECT_NEAR(r.sim_delivered.mean(), r.ana_delivery.mean(), 0.12)
        << "ttl=" << ttl;
  }
}

TEST(Experiment, AnalysisTracksSimulationTraceableRate) {
  auto cfg = small_config();
  cfg.runs = 600;
  cfg.ttl = 1e6;  // ensure plenty of delivered paths to measure
  cfg.compromise_fraction = 0.2;
  auto r = run_random(cfg);
  ASSERT_GT(r.delivered_runs, 500u);
  EXPECT_NEAR(r.sim_traceable.mean(), r.ana_traceable_exact.mean(), 0.03);
}

TEST(Experiment, AnalysisTracksSimulationAnonymity) {
  auto cfg = small_config();
  cfg.runs = 600;
  cfg.ttl = 1e6;
  cfg.compromise_fraction = 0.2;
  auto r = run_random(cfg);
  EXPECT_NEAR(r.sim_anonymity.mean(), r.ana_anonymity.mean(), 0.03);
}

TEST(Experiment, MultiCopyImprovesDeliveryAndCostsMore) {
  auto cfg = small_config();
  cfg.ttl = 120.0;
  cfg.runs = 300;
  auto single = run_random(cfg);
  cfg.copies = 3;
  auto multi = run_random(cfg);
  EXPECT_GT(multi.sim_delivered.mean(), single.sim_delivered.mean());
  EXPECT_GT(multi.sim_transmissions.mean(), single.sim_transmissions.mean());
}

TEST(Experiment, CostWithinBound) {
  auto cfg = small_config();
  cfg.copies = 3;
  cfg.ttl = 1e6;
  auto r = run_random(cfg);
  EXPECT_LE(r.sim_transmissions.max(), r.ana_cost_bound.mean());
  EXPECT_EQ(r.ana_cost_bound.mean(), 15.0);          // (K+2)L = 5*3
  EXPECT_EQ(r.ana_cost_non_anonymous.mean(), 6.0);   // 2L
  // Analysis accumulators carry one sample per run.
  EXPECT_EQ(r.ana_cost_bound.count(), cfg.runs);
  EXPECT_EQ(r.ana_cost_bound.variance(), 0.0);
}

TEST(Experiment, SingleCopyCostIsExactlyKPlus1WhenDelivered) {
  auto cfg = small_config();
  cfg.ttl = 1e6;
  auto r = run_random(cfg);
  ASSERT_EQ(r.delivered_runs, cfg.runs);
  EXPECT_DOUBLE_EQ(r.sim_transmissions.mean(), 4.0);
}

TEST(Experiment, RealCryptoModeAgreesWithFastMode) {
  // Same seed, crypto on/off: delivery statistics must be very close (the
  // crypto path must not alter forwarding decisions; RNG draws differ so
  // exact equality is not required).
  auto cfg = small_config();
  cfg.runs = 150;
  cfg.ttl = 400.0;
  auto fast = run_random(cfg);
  cfg.crypto = routing::CryptoMode::kReal;
  auto real = run_random(cfg);
  EXPECT_NEAR(fast.sim_delivered.mean(), real.sim_delivered.mean(), 0.1);
}

TEST(Experiment, TraceExperimentRuns) {
  auto trace = trace::make_cambridge_like(3);
  ExperimentConfig cfg;
  cfg.group_size = 1;
  cfg.num_relays = 3;
  cfg.ttl = 4 * 3600.0;
  cfg.runs = 60;
  cfg.seed = 5;
  auto r = run_on_trace(cfg, trace);
  EXPECT_GT(r.sim_delivered.mean(), 0.3);
  EXPECT_GT(r.ana_delivery.mean(), 0.3);
  // Dense trace: model and sim in the same ballpark (Fig. 14's claim).
  EXPECT_NEAR(r.sim_delivered.mean(), r.ana_delivery.mean(), 0.25);
}

TEST(Experiment, TraceDeadlineMonotonicity) {
  auto trace = trace::make_cambridge_like(4);
  ExperimentConfig cfg;
  cfg.group_size = 1;
  cfg.runs = 80;
  double prev = -1.0;
  for (double ttl : {600.0, 3600.0, 6 * 3600.0}) {
    cfg.ttl = ttl;
    auto r = run_on_trace(cfg, trace);
    EXPECT_GE(r.sim_delivered.mean(), prev - 0.05) << "ttl=" << ttl;
    prev = r.sim_delivered.mean();
  }
}

TEST(Experiment, RefinedMultiCopyAnonymityModelBeatsEq20) {
  // Reproduce the paper's Fig. 12 drift at high compromise rates, then
  // show the relay-diversity-aware model (path_anonymity_model_distinct)
  // closes the gap: measure the realized distinct-relay counts from the
  // same runs and plug them in.
  util::Rng rng(21);
  std::size_t n = 100, g = 5, k = 3, l = 5;
  double p = 0.4;

  util::RunningStats sim_anon;
  std::vector<util::RunningStats> distinct(k);
  for (int run = 0; run < 250; ++run) {
    auto graph = graph::random_contact_graph(n, rng, 10.0, 360.0);
    sim::PoissonContactModel contacts(graph, rng);
    groups::GroupDirectory dir(n, g, &rng);
    groups::KeyManager keys(dir, rng.next());
    onion::OnionCodec codec;
    routing::OnionContext ctx{&dir, &keys, &codec,
                              routing::CryptoMode::kNone};
    routing::MultiCopyOnionRouting protocol(ctx);

    routing::MessageSpec spec;
    spec.src = static_cast<NodeId>(rng.below(n));
    spec.dst = static_cast<NodeId>(rng.below(n - 1));
    if (spec.dst >= spec.src) ++spec.dst;
    spec.ttl = 1e6;
    spec.num_relays = k;
    spec.copies = l;
    auto r = protocol.route(contacts, spec, rng);
    if (!r.delivered) continue;

    adversary::CompromiseModel compromise =
        adversary::CompromiseModel::from_fraction(n, p, rng);
    sim_anon.add(adversary::measured_path_anonymity(
        spec.src, r.relays_per_hop, compromise, n, g));
    for (std::size_t hop = 0; hop < k; ++hop) {
      distinct[hop].add(static_cast<double>(r.relays_per_hop[hop].size()));
    }
  }

  std::vector<double> mean_distinct;
  for (const auto& s : distinct) mean_distinct.push_back(s.mean());
  double refined =
      analysis::path_anonymity_model_distinct(k + 1, p, n, g, mean_distinct);
  double eq20 = analysis::path_anonymity_model(k + 1, p, n, g, l);

  double gap_refined = std::abs(refined - sim_anon.mean());
  double gap_eq20 = std::abs(eq20 - sim_anon.mean());
  EXPECT_LT(gap_refined, gap_eq20);
  EXPECT_LT(gap_refined, 0.03);
}

TEST(Experiment, MoreThreadsThanRunsClamped) {
  auto cfg = small_config();
  cfg.runs = 3;
  cfg.threads = 16;
  auto r = run_random(cfg);
  EXPECT_EQ(r.sim_delivered.count(), 3u);
}

TEST(Experiment, ZeroRunsRejected) {
  ExperimentConfig cfg;
  cfg.runs = 0;
  EXPECT_THROW(Experiment(cfg).run(RandomGraphScenario{}),
               std::invalid_argument);
  auto trace = trace::make_cambridge_like(1);
  EXPECT_THROW(Experiment(cfg).run(TraceScenario{&trace}),
               std::invalid_argument);
}

// Without a checkpoint there is nothing to resume from: --resume alone is
// refused instead of silently starting a fresh sweep.
TEST(Experiment, ResumeWithoutCheckpointRejected) {
  ExperimentConfig cfg;
  cfg.runs = 2;
  cfg.resume = true;
  EXPECT_THROW(Experiment(cfg).validate(RandomGraphScenario{}),
               std::invalid_argument);
  cfg.checkpoint_path = testing::TempDir() + "odtn_resume_without_cp";
  EXPECT_NO_THROW(Experiment(cfg).validate(RandomGraphScenario{}));
}

}  // namespace
}  // namespace odtn::core
