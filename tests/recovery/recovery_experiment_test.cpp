// Recovery through core::Experiment: bit-identical results and metrics
// exports across thread counts with the full recovery stack on, backoff
// determinism across a checkpoint kill-and-resume, the config-hash
// compatibility contract for the recovery fields, validation, and the
// headline robustness claim (recovery buys delivery back under faults).
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/experiment.hpp"
#include "metrics/writer.hpp"

namespace odtn::core {
namespace {

// Loaded faulty workload; recovery knobs added by recovery_config().
ExperimentConfig loaded_config() {
  ExperimentConfig cfg;
  cfg.nodes = 30;
  cfg.runs = 6;
  cfg.seed = 11;
  cfg.collect_metrics = true;
  traffic::FlowConfig flow;
  flow.rate = 0.4;
  flow.ttl = 900.0;
  flow.copies = 2;
  cfg.traffic.flows.push_back(flow);
  flow.priority = 1;
  cfg.traffic.flows.push_back(flow);
  cfg.traffic.horizon = 300.0;
  cfg.bandwidth.messages_per_contact = 2;
  cfg.buffer_capacity = 8;
  cfg.faults.mean_uptime = 400.0;
  cfg.faults.mean_downtime = 100.0;
  cfg.faults.blackhole_fraction = 0.1;
  return cfg;
}

ExperimentConfig recovery_config() {
  ExperimentConfig cfg = loaded_config();
  cfg.recovery.acks = true;
  cfg.recovery.retx_timeout = 100.0;
  cfg.recovery.retx_max = 3;
  cfg.recovery.retx_jitter = 0.1;
  cfg.recovery.suspicion_alpha = 0.3;
  cfg.recovery.shed_occupancy = 0.9;
  cfg.recovery.shed_saturation = 0.75;
  return cfg;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.sim_delivered.mean(), b.sim_delivered.mean());
  EXPECT_EQ(a.sim_delay.mean(), b.sim_delay.mean());
  EXPECT_EQ(a.sim_throughput.mean(), b.sim_throughput.mean());
  EXPECT_EQ(a.sim_p99_delay.mean(), b.sim_p99_delay.mean());
  EXPECT_EQ(a.sim_transmissions.mean(), b.sim_transmissions.mean());
  EXPECT_EQ(metrics::to_jsonl(a.metrics), metrics::to_jsonl(b.metrics));
}

std::uint64_t counter_of(const ExperimentResult& r, const std::string& name) {
  auto it = r.metrics.entries().find(name);
  return it == r.metrics.entries().end() ? 0 : it->second.counter;
}

// The tentpole determinism contract: the full recovery stack (ACKs +
// jittered retransmission + suspicion + shedding) over a faulty loaded
// sweep folds to bit-identical stats and a byte-identical metrics export
// at every thread count. Every recovery draw must come from per-message
// derive_seed sub-streams for this to hold.
TEST(RecoveryExperiment, RetransmissionIsBitIdenticalAcrossThreadCounts) {
  ExperimentConfig cfg = recovery_config();
  cfg.threads = 1;
  auto t1 = Experiment(cfg).run(RandomGraphScenario{});
  cfg.threads = 4;
  auto t4 = Experiment(cfg).run(RandomGraphScenario{});

  // Not vacuous: retransmissions and ACKs actually happened.
  EXPECT_GT(counter_of(t1, "recovery.retransmits"), 0u);
  EXPECT_GT(counter_of(t1, "recovery.acks_created"), 0u);
  expect_identical(t1, t4);
}

// The unloaded onion protocols carry the retransmission semantics too
// (at every L a timeout sprays a new generation that races the copies
// already out); they must stay thread-count deterministic and at least as
// good as the fire-and-forget baseline under faults.
TEST(RecoveryExperiment, UnloadedRetransmissionIsDeterministicAndHelps) {
  ExperimentConfig cfg;
  cfg.nodes = 30;
  cfg.runs = 40;
  cfg.seed = 7;
  cfg.ttl = 400.0;
  cfg.faults.blackhole_fraction = 0.2;
  auto baseline = Experiment(cfg).run(RandomGraphScenario{});

  cfg.recovery.retx_timeout = 100.0;
  cfg.recovery.suspicion_alpha = 0.3;
  cfg.threads = 1;
  auto t1 = Experiment(cfg).run(RandomGraphScenario{});
  cfg.threads = 4;
  auto t4 = Experiment(cfg).run(RandomGraphScenario{});

  EXPECT_EQ(t1.sim_delivered.mean(), t4.sim_delivered.mean());
  EXPECT_EQ(t1.sim_delay.mean(), t4.sim_delay.mean());
  EXPECT_EQ(t1.sim_transmissions.mean(), t4.sim_transmissions.mean());
  EXPECT_GE(t1.sim_delivered.mean(), baseline.sim_delivered.mean());
}

// Backoff state is reconstructed, not persisted: a sweep killed mid-way
// and resumed from its checkpoint must reproduce the uninterrupted sweep
// exactly — including every jittered retransmission schedule.
TEST(RecoveryExperiment, BackoffIsDeterministicAcrossCheckpointResume) {
  ExperimentConfig cfg = recovery_config();
  cfg.runs = 12;
  auto expected = Experiment(cfg).run(RandomGraphScenario{});

  auto first = cfg;
  first.runs = 6;
  first.checkpoint_path = testing::TempDir() + "odtn_recovery_resume";
  first.checkpoint_interval = 3;
  Experiment(first).run(RandomGraphScenario{});

  auto second = cfg;
  second.checkpoint_path = first.checkpoint_path;
  second.checkpoint_interval = 3;
  second.resume = true;
  second.threads = 4;
  auto resumed = Experiment(second).run(RandomGraphScenario{});
  expect_identical(expected, resumed);
  std::remove(first.checkpoint_path.c_str());
}

// Appending the recovery fields must not move the config hash of any
// recovery-disabled config (old checkpoints keep resuming), while every
// recovery knob must move it (a resumed sweep can't silently change
// retry semantics).
TEST(RecoveryExperiment, ConfigHashIsStableForZeroRecoveryConfigs) {
  ExperimentConfig base = loaded_config();
  ExperimentConfig untouched = loaded_config();
  EXPECT_EQ(checkpoint_config_hash(base, "random"),
            checkpoint_config_hash(untouched, "random"));

  const auto base_hash = checkpoint_config_hash(base, "random");
  auto moved = [&](const ExperimentConfig& c) {
    return checkpoint_config_hash(c, "random") != base_hash;
  };

  ExperimentConfig acks = loaded_config();
  acks.recovery.acks = true;
  EXPECT_TRUE(moved(acks));

  ExperimentConfig retx = loaded_config();
  retx.recovery.retx_timeout = 50.0;
  EXPECT_TRUE(moved(retx));

  ExperimentConfig jitter = retx;
  jitter.recovery.retx_jitter = 0.3;
  EXPECT_NE(checkpoint_config_hash(retx, "random"),
            checkpoint_config_hash(jitter, "random"));

  ExperimentConfig shed = loaded_config();
  shed.recovery.shed_saturation = 0.5;
  EXPECT_TRUE(moved(shed));

  ExperimentConfig penalty = loaded_config();
  penalty.load_forwarder = LoadForwarder::kUtility;
  penalty.utility_failure_penalty = 0.5;
  ExperimentConfig no_penalty = loaded_config();
  no_penalty.load_forwarder = LoadForwarder::kUtility;
  EXPECT_NE(checkpoint_config_hash(penalty, "random"),
            checkpoint_config_hash(no_penalty, "random"));
}

TEST(RecoveryExperiment, SimulatorOnlyKnobsRequireTraffic) {
  // ACK vaccines and shedding are network-simulator semantics.
  ExperimentConfig cfg;
  cfg.runs = 1;
  cfg.recovery.acks = true;
  EXPECT_THROW(Experiment(cfg).run(RandomGraphScenario{}),
               std::invalid_argument);

  ExperimentConfig cfg2;
  cfg2.runs = 1;
  cfg2.recovery.shed_saturation = 0.5;
  EXPECT_THROW(Experiment(cfg2).run(RandomGraphScenario{}),
               std::invalid_argument);

  // The failure-penalty knob is tied to the utility forwarders.
  ExperimentConfig cfg3;
  cfg3.runs = 1;
  cfg3.utility_failure_penalty = 0.5;
  EXPECT_THROW(Experiment(cfg3).run(RandomGraphScenario{}),
               std::invalid_argument);

  // Retransmission alone applies to the unloaded protocols: valid.
  ExperimentConfig cfg4;
  cfg4.runs = 1;
  cfg4.nodes = 20;
  cfg4.recovery.retx_timeout = 100.0;
  EXPECT_NO_THROW(Experiment(cfg4).run(RandomGraphScenario{}));
}

// The headline robustness claim, at test scale: under churn + blackholes
// the full stack delivers materially more of the offered load, and the
// recovery metrics account for the work done.
TEST(RecoveryExperiment, RecoveryImprovesDeliveryUnderFaults) {
  ExperimentConfig off = loaded_config();
  auto off_result = Experiment(off).run(RandomGraphScenario{});

  ExperimentConfig on = recovery_config();
  auto on_result = Experiment(on).run(RandomGraphScenario{});

  EXPECT_GT(on_result.sim_delivered.mean(), off_result.sim_delivered.mean());
  EXPECT_GT(counter_of(on_result, "recovery.ack_gc_copies"), 0u);
  EXPECT_EQ(counter_of(off_result, "recovery.retransmits"), 0u);
}

}  // namespace
}  // namespace odtn::core
