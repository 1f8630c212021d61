// Cross-backend equivalence: the sparse CSR backend must be *bit-identical*
// to the dense triangular one wherever both apply — same query results,
// same simulated contact sequences, same end-to-end experiment statistics
// at every thread count. This is the contract that lets the dense paper
// baselines stay frozen while the sparse backend takes over the scale
// regime.
#include <gtest/gtest.h>

#include <vector>

#include "core/experiment.hpp"
#include "graph/contact_graph.hpp"
#include "graph/sparse_contact_graph.hpp"
#include "sim/contact_model.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace odtn {
namespace {

void expect_same_state(const util::RunningStats& a,
                       const util::RunningStats& b) {
  auto sa = a.state();
  auto sb = b.state();
  EXPECT_EQ(sa.n, sb.n);
  EXPECT_EQ(sa.mean, sb.mean);  // bitwise: EQ on doubles, not NEAR
  EXPECT_EQ(sa.m2, sb.m2);
  EXPECT_EQ(sa.min, sb.min);
  EXPECT_EQ(sa.max, sb.max);
}

void expect_same_result(const core::ExperimentResult& a,
                        const core::ExperimentResult& b) {
  expect_same_state(a.sim_delivered, b.sim_delivered);
  expect_same_state(a.sim_delay, b.sim_delay);
  expect_same_state(a.sim_transmissions, b.sim_transmissions);
  expect_same_state(a.sim_traceable, b.sim_traceable);
  expect_same_state(a.sim_anonymity, b.sim_anonymity);
  expect_same_state(a.ana_delivery, b.ana_delivery);
  expect_same_state(a.ana_traceable_exact, b.ana_traceable_exact);
  expect_same_state(a.ana_anonymity, b.ana_anonymity);
  expect_same_state(a.ana_cost_bound, b.ana_cost_bound);
  EXPECT_EQ(a.delivered_runs, b.delivered_runs);
  EXPECT_EQ(a.failed_runs.size(), b.failed_runs.size());
}

TEST(BackendEquivalence, SparseFromDenseAnswersIdentically) {
  util::Rng rng(3);
  auto dense = graph::random_contact_graph(60, rng);
  auto sparse = graph::sparse_from_dense(dense);
  ASSERT_EQ(sparse.node_count(), dense.node_count());

  std::vector<NodeId> set = {3, 17, 41, 59};
  for (NodeId i = 0; i < 60; ++i) {
    EXPECT_EQ(sparse.row_rate_sum(i), dense.row_rate_sum(i));
    EXPECT_EQ(sparse.rate_to_set(i, set), dense.rate_to_set(i, set));
    for (NodeId j = 0; j < 60; ++j) {
      if (i != j) {
        EXPECT_EQ(sparse.rate(i, j), dense.rate(i, j));
      }
    }
  }
  EXPECT_EQ(sparse.total_rate(), dense.total_rate());

  std::vector<NodeId> from = {0, 1, 2};
  EXPECT_EQ(sparse.mean_set_to_set_rate(from, set),
            dense.mean_set_to_set_rate(from, set));
}

TEST(BackendEquivalence, SparseRandomGraphDrawsDenseSequence) {
  util::Rng rng_dense(9), rng_sparse(9);
  auto dense = graph::random_contact_graph(40, rng_dense, 10.0, 360.0);
  auto sparse = graph::sparse_random_contact_graph(40, rng_sparse, 10.0, 360.0);
  for (NodeId i = 0; i < 40; ++i) {
    for (NodeId j = i + 1; j < 40; ++j) {
      EXPECT_EQ(sparse.rate(i, j), dense.rate(i, j));
    }
  }
  // The generators consumed identical RNG draws.
  EXPECT_EQ(rng_dense.next(), rng_sparse.next());
}

TEST(BackendEquivalence, ContactModelsSampleIdenticalEvents) {
  util::Rng graph_rng(5);
  auto dense = graph::random_contact_graph(30, graph_rng);
  auto sparse = graph::sparse_from_dense(dense);

  util::Rng rng_a(42), rng_b(42);
  sim::PoissonContactModel ma(dense, rng_a);
  sim::PoissonContactModel mb(sparse, rng_b);

  std::vector<NodeId> from = {0, 5, 9};
  std::vector<NodeId> to = {2, 7, 11, 20};
  std::vector<NodeId> excluded = {0, 5, 9, 29};
  Time ta = 0.0, tb = 0.0;
  for (int step = 0; step < 200; ++step) {
    auto ea = ma.first_cross_contact(from, to, ta, ta + 1e6);
    auto eb = mb.first_cross_contact(from, to, tb, tb + 1e6);
    ASSERT_EQ(ea.has_value(), eb.has_value());
    ASSERT_TRUE(ea.has_value());
    EXPECT_EQ(ea->time, eb->time);
    EXPECT_EQ(ea->a, eb->a);
    EXPECT_EQ(ea->b, eb->b);
    ta = ea->time;
    tb = eb->time;

    auto ca = ma.first_cross_contact_complement(from, excluded, ta, ta + 1e6);
    auto cb = mb.first_cross_contact_complement(from, excluded, tb, tb + 1e6);
    ASSERT_EQ(ca.has_value(), cb.has_value());
    ASSERT_TRUE(ca.has_value());
    EXPECT_EQ(ca->time, cb->time);
    EXPECT_EQ(ca->a, cb->a);
    EXPECT_EQ(ca->b, cb->b);
  }
}

TEST(BackendEquivalence, PoissonTraceIdenticalAcrossBackends) {
  // One sampler serves both backends; it must draw the same sequence and
  // give the same events whichever storage holds the rates.
  util::Rng graph_rng(8);
  auto dense = graph::sparse_contact_graph(40, 0.5, graph_rng);
  auto sparse = graph::sparse_from_dense(dense);

  util::Rng rng_a(9), rng_b(9);
  auto ta = trace::sample_poisson_trace(dense, 900.0, rng_a);
  auto tb = trace::sample_poisson_trace(sparse, 900.0, rng_b);
  EXPECT_GT(ta.event_count(), 1000u);
  EXPECT_EQ(ta.events(), tb.events());
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(BackendEquivalence, ComplementPlanMatchesExplicitTargetList) {
  // The complement plan must behave exactly like preparing the explicit
  // "everyone not excluded" target list — same events, same RNG stream.
  util::Rng graph_rng(6);
  auto dense = graph::random_contact_graph(25, graph_rng);

  util::Rng rng_a(7), rng_b(7);
  sim::PoissonContactModel ma(dense, rng_a);
  sim::PoissonContactModel mb(dense, rng_b);

  std::vector<NodeId> from = {3};
  std::vector<NodeId> excluded = {3, 8, 19};
  std::vector<NodeId> explicit_targets;
  for (NodeId v = 0; v < 25; ++v) {
    if (v != 3 && v != 8 && v != 19) explicit_targets.push_back(v);
  }
  Time t = 0.0;
  for (int step = 0; step < 100; ++step) {
    auto ea = ma.first_cross_contact_complement(from, excluded, t, t + 1e6);
    auto eb = mb.first_cross_contact(from, explicit_targets, t, t + 1e6);
    ASSERT_EQ(ea.has_value(), eb.has_value());
    ASSERT_TRUE(ea.has_value());
    EXPECT_EQ(ea->time, eb->time);
    EXPECT_EQ(ea->a, eb->a);
    EXPECT_EQ(ea->b, eb->b);
    t = ea->time;
  }
}

core::ExperimentConfig paper_config(std::size_t threads) {
  core::ExperimentConfig cfg;
  cfg.nodes = 100;
  cfg.runs = 40;
  cfg.seed = 12;
  cfg.threads = threads;
  return cfg;
}

TEST(BackendEquivalence, ExperimentIdenticalAtPaperScale) {
  auto dense_cfg = paper_config(1);
  auto sparse_cfg = dense_cfg;
  sparse_cfg.backend = core::ContactBackend::kSparse;

  auto rd = core::Experiment(dense_cfg).run(core::RandomGraphScenario{});
  auto rs = core::Experiment(sparse_cfg).run(core::RandomGraphScenario{});
  expect_same_result(rd, rs);
}

TEST(BackendEquivalence, ExperimentIdenticalAcrossThreads) {
  auto cfg1 = paper_config(1);
  cfg1.backend = core::ContactBackend::kSparse;
  auto cfg4 = paper_config(4);
  cfg4.backend = core::ContactBackend::kSparse;

  auto r1 = core::Experiment(cfg1).run(core::RandomGraphScenario{});
  auto r4 = core::Experiment(cfg4).run(core::RandomGraphScenario{});
  expect_same_result(r1, r4);
}

TEST(BackendEquivalence, ShardedDirectoryExperimentIsDeterministic) {
  auto cfg = paper_config(1);
  cfg.backend = core::ContactBackend::kSparse;
  cfg.avg_degree = 16;
  cfg.communities = 4;
  cfg.group_shards = 5;
  cfg.runs = 20;

  auto r1 = core::Experiment(cfg).run(core::RandomGraphScenario{});
  auto cfg4 = cfg;
  cfg4.threads = 4;
  auto r4 = core::Experiment(cfg4).run(core::RandomGraphScenario{});
  expect_same_result(r1, r4);
}

TEST(BackendEquivalence, BackendValidationErrors) {
  core::ExperimentConfig cfg;
  cfg.avg_degree = 8;  // sparse-only knob on the dense backend
  EXPECT_THROW(core::Experiment(cfg).run(core::RandomGraphScenario{}),
               std::invalid_argument);

  core::ExperimentConfig big;
  big.backend = core::ContactBackend::kSparse;
  big.nodes = 6000;  // complete sparse graph above the cap needs avg_degree
  EXPECT_THROW(core::Experiment(big).run(core::RandomGraphScenario{}),
               std::invalid_argument);

  core::ExperimentConfig st;
  st.runs = 1;
  EXPECT_THROW(
      core::Experiment(st).run(core::SparseTraceScenario{"x.txt"}),
      std::invalid_argument);  // streaming trace requires the sparse backend
}

}  // namespace
}  // namespace odtn
