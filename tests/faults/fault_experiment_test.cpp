// Engine hardening tests: sweeps with faults enabled stay bit-identical at
// every thread count, a throwing run is quarantined instead of aborting the
// sweep, and checkpoint/resume reproduces an uninterrupted sweep exactly.
#include "core/checkpoint.hpp"
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "faults/faults.hpp"
#include "metrics/writer.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace odtn::core {
namespace {

ExperimentConfig faulty_config() {
  ExperimentConfig cfg;
  cfg.nodes = 30;
  cfg.runs = 48;
  cfg.seed = 7;
  cfg.ttl = 400.0;
  cfg.faults.mean_uptime = 300.0;
  cfg.faults.mean_downtime = 40.0;
  cfg.faults.p_fail = 0.1;
  cfg.faults.blackhole_fraction = 0.1;
  return cfg;
}

ExperimentResult run_random(const ExperimentConfig& cfg) {
  return Experiment(cfg).run(RandomGraphScenario{});
}

// Every accumulator, the quarantine list, and the stable metrics export —
// equal, bitwise.
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
  ASSERT_EQ(a.failed_runs.size(), b.failed_runs.size());
  for (std::size_t i = 0; i < a.failed_runs.size(); ++i) {
    EXPECT_EQ(a.failed_runs[i].run, b.failed_runs[i].run);
    EXPECT_EQ(a.failed_runs[i].seed, b.failed_runs[i].seed);
    EXPECT_EQ(a.failed_runs[i].message, b.failed_runs[i].message);
  }
  EXPECT_EQ(metrics::to_jsonl(a.metrics), metrics::to_jsonl(b.metrics));
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

TEST(FaultExperiment, FaultsReduceDeliveryButKeepSweepAlive) {
  auto clean = ExperimentConfig{};
  clean.nodes = 30;
  clean.runs = 48;
  clean.seed = 7;
  clean.ttl = 400.0;
  auto baseline = run_random(clean);
  auto faulty = run_random(faulty_config());
  EXPECT_EQ(faulty.sim_delivered.count(), 48u);
  EXPECT_TRUE(faulty.failed_runs.empty());
  EXPECT_LT(faulty.sim_delivered.mean(), baseline.sim_delivered.mean());
}

TEST(FaultExperiment, FaultyRunsIdenticalAcrossThreadCounts) {
  auto cfg = faulty_config();
  cfg.collect_metrics = true;
  cfg.threads = 1;
  auto serial = run_random(cfg);
  for (std::size_t threads : {2u, 4u}) {
    cfg.threads = threads;
    auto parallel = run_random(cfg);
    expect_identical(serial, parallel);
  }
}

TEST(FaultExperiment, GilbertElliottRunsAreDeterministic) {
  auto cfg = faulty_config();
  cfg.faults.p_fail = 0.0;
  cfg.faults.gilbert_elliott =
      faults::GilbertElliott{0.2, 0.5, 0.02, 0.8};
  cfg.threads = 1;
  auto serial = run_random(cfg);
  cfg.threads = 4;
  auto parallel = run_random(cfg);
  expect_identical(serial, parallel);
}

TEST(FaultExperiment, CollectedMetricsHaveNoFaultEntriesWhenDisabled) {
  ExperimentConfig cfg;
  cfg.nodes = 30;
  cfg.runs = 16;
  cfg.collect_metrics = true;
  auto r = run_random(cfg);
  EXPECT_EQ(metrics::to_jsonl(r.metrics).find("faults."), std::string::npos);

  auto faulty = faulty_config();
  faulty.collect_metrics = true;
  auto f = run_random(faulty);
  EXPECT_NE(metrics::to_jsonl(f.metrics).find("faults."), std::string::npos);
}

TEST(FaultExperiment, CertainRunAbortQuarantinesEveryRun) {
  ExperimentConfig cfg;
  cfg.nodes = 30;
  cfg.runs = 12;
  cfg.seed = 9;
  cfg.faults.p_run_abort = 1.0;
  auto r = run_random(cfg);  // must not throw
  ASSERT_EQ(r.failed_runs.size(), 12u);
  EXPECT_EQ(r.sim_delivered.count(), 0u);
  EXPECT_EQ(r.delivered_runs, 0u);
  for (std::size_t i = 0; i < r.failed_runs.size(); ++i) {
    EXPECT_EQ(r.failed_runs[i].run, i);
    EXPECT_EQ(r.failed_runs[i].seed, util::derive_seed(cfg.seed, i));
    EXPECT_NE(r.failed_runs[i].message.find("injected run abort"),
              std::string::npos);
  }
}

TEST(FaultExperiment, PartialAbortFoldsTheRestDeterministically) {
  ExperimentConfig cfg;
  cfg.nodes = 30;
  cfg.runs = 60;
  cfg.seed = 9;
  cfg.ttl = 400.0;
  cfg.faults.p_run_abort = 0.3;
  cfg.threads = 1;
  auto serial = run_random(cfg);
  EXPECT_GT(serial.failed_runs.size(), 0u);
  EXPECT_LT(serial.failed_runs.size(), 60u);
  EXPECT_EQ(serial.sim_delivered.count() + serial.failed_runs.size(), 60u);
  // Quarantine indices stay sorted under the ordered fold.
  for (std::size_t i = 1; i < serial.failed_runs.size(); ++i) {
    EXPECT_LT(serial.failed_runs[i - 1].run, serial.failed_runs[i].run);
  }
  cfg.threads = 4;
  auto parallel = run_random(cfg);
  expect_identical(serial, parallel);
}

TEST(FaultExperiment, TraceSweepQuarantinesToo) {
  auto trace = trace::make_cambridge_like(2);
  ExperimentConfig cfg;
  cfg.group_size = 1;
  cfg.runs = 10;
  cfg.faults.p_run_abort = 1.0;
  auto r = Experiment(cfg).run(TraceScenario{&trace});
  EXPECT_EQ(r.failed_runs.size(), 10u);
}

TEST(Checkpoint, RoundTripIsExact) {
  auto cfg = faulty_config();
  cfg.runs = 24;
  cfg.faults.p_run_abort = 0.2;
  cfg.collect_metrics = true;
  auto result = run_random(cfg);

  CheckpointData data;
  data.completed_runs = 24;
  data.result = result;
  const std::string path = temp_path("odtn_checkpoint_roundtrip");
  save_checkpoint(path, 12345u, data);
  auto loaded = load_checkpoint(path, 12345u);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->completed_runs, 24u);
  expect_identical(result, loaded->result);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileMeansFreshStart) {
  EXPECT_FALSE(
      load_checkpoint(temp_path("odtn_checkpoint_nonexistent"), 1).has_value());
}

TEST(Checkpoint, HashMismatchAndCorruptionRejected) {
  CheckpointData data;
  data.completed_runs = 1;
  data.result.sim_delivered.add(1.0);
  const std::string path = temp_path("odtn_checkpoint_mismatch");
  save_checkpoint(path, 1u, data);
  EXPECT_THROW(load_checkpoint(path, 2u), std::runtime_error);

  // Truncate: the loader must notice the missing end marker.
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("odtn.checkpoint.v1\nhash 1\ncompleted 1\n", f);
    std::fclose(f);
  }
  EXPECT_THROW(load_checkpoint(path, 1u), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, ConfigHashSeparatesExperiments)  {
  auto cfg = faulty_config();
  auto base = checkpoint_config_hash(cfg, "random_graph");
  EXPECT_EQ(base, checkpoint_config_hash(cfg, "random_graph"));
  EXPECT_NE(base, checkpoint_config_hash(cfg, "trace"));

  auto other = cfg;
  other.seed = 8;
  EXPECT_NE(base, checkpoint_config_hash(other, "random_graph"));
  other = cfg;
  other.faults.p_fail = 0.2;
  EXPECT_NE(base, checkpoint_config_hash(other, "random_graph"));
  // Extending a sweep or changing thread count keeps the hash: the runs
  // already folded are unaffected.
  other = cfg;
  other.runs = 1000;
  other.threads = 8;
  other.checkpoint_interval = 3;
  EXPECT_EQ(base, checkpoint_config_hash(other, "random_graph"));
}

TEST(Checkpoint, ChunkedSweepMatchesUnchunked) {
  auto plain = faulty_config();
  plain.collect_metrics = true;
  auto expected = run_random(plain);

  auto chunked = plain;
  chunked.checkpoint_path = temp_path("odtn_checkpoint_chunked");
  chunked.checkpoint_interval = 7;  // does not divide 48: ragged last chunk
  auto actual = run_random(chunked);
  expect_identical(expected, actual);

  // The final snapshot covers the whole sweep.
  auto cp = load_checkpoint(chunked.checkpoint_path,
                            checkpoint_config_hash(chunked, "random_graph"));
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->completed_runs, 48u);
  expect_identical(expected, cp->result);
  std::remove(chunked.checkpoint_path.c_str());
}

TEST(Checkpoint, KillAndResumeIsByteIdentical) {
  // Uninterrupted reference sweep.
  auto cfg = faulty_config();
  cfg.runs = 40;
  cfg.faults.p_run_abort = 0.15;  // quarantine list must survive resume too
  cfg.collect_metrics = true;
  auto expected = run_random(cfg);

  // "Killed" sweep: only the first 18 runs happen, checkpointed every 6.
  auto first = cfg;
  first.runs = 18;
  first.checkpoint_path = temp_path("odtn_checkpoint_resume");
  first.checkpoint_interval = 6;
  run_random(first);

  // Resume to the full 40 runs — different thread count on purpose.
  auto second = cfg;
  second.runs = 40;
  second.checkpoint_path = first.checkpoint_path;
  second.checkpoint_interval = 6;
  second.resume = true;
  second.threads = 4;
  auto resumed = run_random(second);
  expect_identical(expected, resumed);
  std::remove(first.checkpoint_path.c_str());
}

TEST(Checkpoint, ResumeWithoutFileRunsFromScratch) {
  auto cfg = faulty_config();
  auto expected = run_random(cfg);
  auto resuming = cfg;
  resuming.checkpoint_path = temp_path("odtn_checkpoint_fresh");
  std::remove(resuming.checkpoint_path.c_str());
  resuming.resume = true;
  auto actual = run_random(resuming);
  expect_identical(expected, actual);
  std::remove(resuming.checkpoint_path.c_str());
}

TEST(Checkpoint, ResumeRejectsForeignCheckpoint) {
  auto cfg = faulty_config();
  cfg.runs = 8;
  cfg.checkpoint_path = temp_path("odtn_checkpoint_foreign");
  run_random(cfg);

  auto other = cfg;
  other.seed = 1234;  // outcome-determining change: hash differs
  other.resume = true;
  EXPECT_THROW(run_random(other), std::runtime_error);

  // A checkpoint that already covers more runs than requested is an error,
  // not silent truncation.
  auto shrunk = cfg;
  shrunk.runs = 4;
  shrunk.resume = true;
  EXPECT_THROW(run_random(shrunk), std::runtime_error);
  std::remove(cfg.checkpoint_path.c_str());
}

TEST(Checkpoint, ResumeRejectsADifferentTrace) {
  auto first = trace::make_cambridge_like(2);
  auto second = trace::make_cambridge_like(3);
  ExperimentConfig cfg;
  cfg.group_size = 1;
  cfg.runs = 6;
  cfg.checkpoint_path = temp_path("odtn_checkpoint_trace");
  Experiment(cfg).run(TraceScenario{&first});

  // Same config, same trace: the checkpoint resumes.
  auto more = cfg;
  more.runs = 8;
  more.resume = true;
  EXPECT_NO_THROW(Experiment(more).run(TraceScenario{&first}));

  // Same config, other contact data: refused, never silently mixed.
  try {
    Experiment(more).run(TraceScenario{&second});
    ADD_FAILURE() << "resume against a different trace did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "different experiment configuration"),
              std::string::npos)
        << e.what();
  }
  std::remove(cfg.checkpoint_path.c_str());
}

TEST(Checkpoint, ResumeOfCompleteSweepIsANoOp) {
  auto cfg = faulty_config();
  cfg.runs = 12;
  cfg.checkpoint_path = temp_path("odtn_checkpoint_complete");
  auto expected = run_random(cfg);
  auto again = cfg;
  again.resume = true;
  auto resumed = run_random(again);
  expect_identical(expected, resumed);
  std::remove(cfg.checkpoint_path.c_str());
}

}  // namespace
}  // namespace odtn::core
