// The --metrics-out guarantee: for a fixed seed, the exported metrics are
// byte-identical at every thread count. Runs the same experiment serial
// and sharded and compares the canonical JSONL exports.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "metrics/writer.hpp"
#include "trace/synthetic.hpp"

namespace odtn::core {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.nodes = 40;
  cfg.group_size = 4;
  cfg.num_relays = 2;
  cfg.runs = 24;
  cfg.seed = 99;
  cfg.collect_metrics = true;
  return cfg;
}

TEST(MetricsDeterminism, RandomGraphExportIdenticalAcrossThreads) {
  auto cfg = small_config();
  cfg.threads = 1;
  auto serial = Experiment(cfg).run(RandomGraphScenario{});
  cfg.threads = 4;
  auto parallel = Experiment(cfg).run(RandomGraphScenario{});

  std::string a = metrics::to_jsonl(serial.metrics);
  std::string b = metrics::to_jsonl(parallel.metrics);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());

  // Sanity: the instrumentation actually fired.
  const auto& entries = serial.metrics.entries();
  ASSERT_TRUE(entries.count("experiment.runs"));
  EXPECT_EQ(entries.at("experiment.runs").counter, cfg.runs);
  ASSERT_TRUE(entries.count("routing.forwards"));
  EXPECT_GT(entries.at("routing.forwards").counter, 0u);
  ASSERT_TRUE(entries.count("experiment.delay"));
  EXPECT_GT(entries.at("experiment.delay").hist.count(), 0u);
}

TEST(MetricsDeterminism, TraceExportIdenticalAcrossThreads) {
  auto trace = trace::make_cambridge_like(5);
  ExperimentConfig cfg;
  cfg.group_size = 1;
  cfg.runs = 16;
  cfg.seed = 7;
  cfg.collect_metrics = true;
  cfg.threads = 1;
  auto serial = Experiment(cfg).run(TraceScenario{&trace});
  cfg.threads = 4;
  auto parallel = Experiment(cfg).run(TraceScenario{&trace});

  EXPECT_EQ(metrics::to_jsonl(serial.metrics),
            metrics::to_jsonl(parallel.metrics));
  EXPECT_EQ(serial.metrics.entries().at("experiment.runs").counter, cfg.runs);
}

TEST(MetricsDeterminism, CollectionOffLeavesRegistryEmpty) {
  auto cfg = small_config();
  cfg.collect_metrics = false;
  auto r = Experiment(cfg).run(RandomGraphScenario{});
  EXPECT_TRUE(r.metrics.empty());
  EXPECT_EQ(metrics::to_jsonl(r.metrics), "");
}

TEST(MetricsDeterminism, CollectionDoesNotPerturbResults) {
  // Turning metrics on must not change the simulation itself.
  auto cfg = small_config();
  cfg.collect_metrics = false;
  auto off = Experiment(cfg).run(RandomGraphScenario{});
  cfg.collect_metrics = true;
  auto on = Experiment(cfg).run(RandomGraphScenario{});
  EXPECT_EQ(off.sim_delivered.mean(), on.sim_delivered.mean());
  EXPECT_EQ(off.sim_transmissions.mean(), on.sim_transmissions.mean());
  EXPECT_EQ(off.sim_delay.mean(), on.sim_delay.mean());
}

}  // namespace
}  // namespace odtn::core
