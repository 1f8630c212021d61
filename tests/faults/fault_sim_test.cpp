// Integration tests: the whole-network simulator consulting a FaultPlan at
// contact time. The 3-node fixture (singleton groups, src=0, dst=2) makes
// relay-group selection deterministic — the only eligible relay group is
// {1} — so every fault semantics check is exact, not statistical.
#include "faults/faults.hpp"
#include "sim/network_sim.hpp"

#include <gtest/gtest.h>

#include "metrics/writer.hpp"
#include "trace/synthetic.hpp"

namespace odtn::sim {
namespace {

InjectedMessage chain_message() {
  InjectedMessage m;
  m.src = 0;
  m.dst = 2;
  m.ttl = 1000.0;
  m.num_relays = 1;
  return m;
}

TEST(FaultSim, ZeroKnobPlanMatchesNoPlan) {
  // Attaching an all-default FaultPlan must not change a single outcome
  // relative to running without one (the byte-identity contract, exercised
  // at the sim level).
  util::Rng rng(3);
  auto graph = graph::random_contact_graph(30, rng, 5.0, 40.0);
  auto trace = trace::sample_poisson_trace(graph, 3000.0, rng);
  groups::GroupDirectory dir(30, 5, &rng);
  std::vector<InjectedMessage> messages;
  for (int i = 0; i < 40; ++i) {
    InjectedMessage m;
    m.src = static_cast<NodeId>(rng.below(30));
    m.dst = static_cast<NodeId>(rng.below(29));
    if (m.dst >= m.src) ++m.dst;
    m.start = rng.uniform(0.0, 500.0);
    m.ttl = 2000.0;
    messages.push_back(m);
  }

  util::Rng r1(9), r2(9);
  auto plain = run_network_sim(trace, dir, messages, {}, {}, r1);
  faults::FaultPlan plan(faults::FaultConfig{}, 30, 3000.0, 77);
  NetworkSimConfig with_plan;
  with_plan.faults = &plan;
  auto planned = run_network_sim(trace, dir, messages, {}, with_plan, r2);

  ASSERT_EQ(plain.outcomes.size(), planned.outcomes.size());
  for (std::size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_EQ(plain.outcomes[i].delivered, planned.outcomes[i].delivered);
    EXPECT_EQ(plain.outcomes[i].delay, planned.outcomes[i].delay);
    EXPECT_EQ(plain.outcomes[i].transmissions,
              planned.outcomes[i].transmissions);
  }
  EXPECT_EQ(plain.total_transmissions, planned.total_transmissions);
  EXPECT_EQ(planned.suppressed_contacts, 0u);
  EXPECT_EQ(planned.transfer_failures, 0u);
  EXPECT_EQ(planned.crash_flushed_copies, 0u);
  EXPECT_EQ(planned.blackhole_absorbed, 0u);
}

TEST(FaultSim, BlackholeAbsorbsAndNeverForwards) {
  groups::GroupDirectory dir(3, 1);
  trace::ContactTrace t(3, {{10.0, 0, 1}, {20.0, 1, 2}});
  faults::FaultConfig cfg;
  cfg.blackhole_fraction = 1.0;
  // Exempting the endpoints leaves exactly node 1 — the only relay.
  const NodeId exempt[2] = {0, 2};
  faults::FaultPlan plan(cfg, 3, 1000.0, 4, exempt);
  ASSERT_TRUE(plan.is_blackhole(1));
  NetworkSimConfig sim_cfg;
  sim_cfg.faults = &plan;
  util::Rng rng(1);
  auto report = run_network_sim(t, dir, {chain_message()}, {}, sim_cfg, rng);
  // The handoff into the blackhole is a real transmission; the copy then
  // vanishes — the t=20 contact with the destination forwards nothing.
  EXPECT_FALSE(report.outcomes[0].delivered);
  EXPECT_EQ(report.total_transmissions, 1u);
  EXPECT_EQ(report.blackhole_absorbed, 1u);
}

TEST(FaultSim, TransferFailureKeepsTicketAndRetries) {
  groups::GroupDirectory dir(3, 1);
  // Two chances for the 0->1 handoff, two for the 1->2 delivery.
  trace::ContactTrace t(
      3, {{10.0, 0, 1}, {15.0, 0, 1}, {20.0, 1, 2}, {25.0, 1, 2}});
  // Deterministic alternating chain: first attempt on each link fails
  // (good -> bad, fail in bad), the retry succeeds (bad -> good).
  faults::FaultConfig cfg;
  cfg.gilbert_elliott = faults::GilbertElliott{1.0, 1.0, 0.0, 1.0};
  faults::FaultPlan plan(cfg, 3, 1000.0, 4);
  NetworkSimConfig sim_cfg;
  sim_cfg.faults = &plan;
  util::Rng rng(1);
  auto report = run_network_sim(t, dir, {chain_message()}, {}, sim_cfg, rng);
  // Failed handoffs consumed no ticket and left the receiver eligible, so
  // both hops eventually went through on the retry contacts.
  EXPECT_TRUE(report.outcomes[0].delivered);
  EXPECT_EQ(report.outcomes[0].delay, 25.0);
  EXPECT_EQ(report.total_transmissions, 2u);
  EXPECT_EQ(report.transfer_failures, 2u);
}

TEST(FaultSim, CertainTransferFailureDeliversNothing) {
  groups::GroupDirectory dir(3, 1);
  trace::ContactTrace t(3, {{10.0, 0, 1}, {20.0, 1, 2}});
  faults::FaultConfig cfg;
  cfg.p_fail = 1.0;
  faults::FaultPlan plan(cfg, 3, 1000.0, 4);
  NetworkSimConfig sim_cfg;
  sim_cfg.faults = &plan;
  util::Rng rng(1);
  auto report = run_network_sim(t, dir, {chain_message()}, {}, sim_cfg, rng);
  EXPECT_FALSE(report.outcomes[0].delivered);
  EXPECT_EQ(report.total_transmissions, 0u);
  EXPECT_GE(report.transfer_failures, 1u);
}

TEST(FaultSim, CrashFlushesBufferedCopy) {
  groups::GroupDirectory dir(3, 1);
  trace::ContactTrace t(3, {{10.0, 0, 1}, {20.0, 1, 2}});
  faults::FaultConfig cfg;
  cfg.mean_uptime = 40.0;
  cfg.mean_downtime = 5.0;
  // The schedule is random per seed; find one where the relay takes the
  // copy at t=10 and crashes before the t=20 delivery contact.
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    faults::FaultPlan plan(cfg, 3, 1000.0, seed);
    if (!plan.node_up(0, 10.0) || !plan.node_up(1, 10.0)) continue;
    if (!plan.crashed_in(1, 10.0, 20.0)) continue;
    NetworkSimConfig sim_cfg;
    sim_cfg.faults = &plan;
    util::Rng rng(1);
    auto report = run_network_sim(t, dir, {chain_message()}, {}, sim_cfg, rng);
    EXPECT_FALSE(report.outcomes[0].delivered);
    EXPECT_EQ(report.total_transmissions, 1u);
    EXPECT_GE(report.crash_flushed_copies, 1u);
    return;
  }
  FAIL() << "no seed produced the handoff-then-crash schedule";
}

TEST(FaultSim, DownNodeSuppressesContact) {
  groups::GroupDirectory dir(3, 1);
  trace::ContactTrace t(3, {{10.0, 0, 1}, {20.0, 1, 2}});
  faults::FaultConfig cfg;
  cfg.mean_uptime = 10.0;
  cfg.mean_downtime = 30.0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    faults::FaultPlan plan(cfg, 3, 1000.0, seed);
    if (plan.node_up(0, 10.0) && plan.node_up(1, 10.0)) continue;
    NetworkSimConfig sim_cfg;
    sim_cfg.faults = &plan;
    util::Rng rng(1);
    auto report = run_network_sim(t, dir, {chain_message()}, {}, sim_cfg, rng);
    EXPECT_GE(report.suppressed_contacts, 1u);
    EXPECT_FALSE(report.outcomes[0].delivered);
    return;
  }
  FAIL() << "no seed powered a contact endpoint down";
}

TEST(FaultSim, FaultMetricsAppearOnlyWithAPlan) {
  groups::GroupDirectory dir(3, 1);
  trace::ContactTrace t(3, {{10.0, 0, 1}, {20.0, 1, 2}});

  metrics::Registry plain_reg;
  NetworkSimConfig plain_cfg;
  plain_cfg.metrics = &plain_reg;
  util::Rng r1(1);
  run_network_sim(t, dir, {chain_message()}, {}, plain_cfg, r1);
  EXPECT_EQ(metrics::to_jsonl(plain_reg).find("faults."), std::string::npos);

  faults::FaultConfig cfg;
  cfg.p_fail = 1.0;
  faults::FaultPlan plan(cfg, 3, 1000.0, 4);
  metrics::Registry fault_reg;
  NetworkSimConfig fault_cfg;
  fault_cfg.metrics = &fault_reg;
  fault_cfg.faults = &plan;
  util::Rng r2(1);
  auto report = run_network_sim(t, dir, {chain_message()}, {}, fault_cfg, r2);
  std::string exported = metrics::to_jsonl(fault_reg);
  EXPECT_NE(exported.find("faults.transfer_failures"), std::string::npos);
  // The counters mirror the report exactly.
  EXPECT_EQ(fault_reg.entries().at("faults.transfer_failures").counter,
            report.transfer_failures);
}

TEST(FaultSim, PlanNodeCountMustMatchTrace) {
  groups::GroupDirectory dir(3, 1);
  trace::ContactTrace t(3, {{10.0, 0, 1}});
  faults::FaultConfig cfg;
  cfg.p_fail = 0.5;
  faults::FaultPlan plan(cfg, 5, 1000.0, 4);
  NetworkSimConfig sim_cfg;
  sim_cfg.faults = &plan;
  util::Rng rng(1);
  EXPECT_THROW(run_network_sim(t, dir, {chain_message()}, {}, sim_cfg, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace odtn::sim
