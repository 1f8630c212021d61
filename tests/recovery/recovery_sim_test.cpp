// Recovery semantics inside the whole-network simulator: ACK (vaccine)
// conservation, expiry-vs-crash reclamation ordering under churn, stale
// state at tail injections, suspicion convergence against a known
// blackhole set, shed-before-collapse under saturating load, and the
// retransmission deadline rule it shares with the onion walker.
#include "sim/network_sim.hpp"

#include <gtest/gtest.h>

#include "faults/faults.hpp"
#include "recovery/recovery.hpp"
#include "routing/onion_routing.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace odtn::sim {
namespace {

// A loaded-ish workload on a dense random trace (the DeliversOnDenseRandomTrace
// fixture with multiple copies in flight).
std::vector<InjectedMessage> dense_messages(util::Rng& rng, int count,
                                            std::size_t copies) {
  std::vector<InjectedMessage> messages;
  for (int i = 0; i < count; ++i) {
    InjectedMessage m;
    m.src = static_cast<NodeId>(rng.below(30));
    m.dst = static_cast<NodeId>(rng.below(29));
    if (m.dst >= m.src) ++m.dst;
    m.start = rng.uniform(0.0, 500.0);
    m.ttl = 2000.0;
    m.copies = copies;
    messages.push_back(m);
  }
  return messages;
}

// Vaccine conservation: exactly one ACK is born per delivered message, a
// source can only learn an ACK that exists, and garbage collection must
// actually reclaim outstanding copies under multi-copy spray.
TEST(RecoverySim, AckConservation) {
  util::Rng rng(3);
  auto graph = graph::random_contact_graph(30, rng, 5.0, 40.0);
  auto trace = trace::sample_poisson_trace(graph, 3000.0, rng);
  groups::GroupDirectory dir(30, 5, &rng);
  auto messages = dense_messages(rng, 40, 3);

  recovery::RecoveryConfig rc;
  rc.acks = true;
  NetworkSimConfig cfg;
  cfg.recovery = &rc;
  cfg.recovery_seed = 99;
  auto report = run_network_sim(trace, dir, messages, {}, cfg, rng);

  std::size_t delivered = 0;
  for (const auto& o : report.outcomes) delivered += o.delivered ? 1 : 0;
  ASSERT_GT(delivered, 0u);
  EXPECT_EQ(report.acks_created, delivered);
  EXPECT_LE(report.acked_at_source, report.acks_created);
  // With 3 copies sprayed per message, some outstanding copies must be
  // vaccinated away after their message delivers.
  EXPECT_GT(report.ack_gc_copies, 0u);
  EXPECT_GT(report.acked_at_source, 0u);
}

// Satellite regression: a relayed copy whose TTL expires at e and whose
// holder crash-reboots at c must be reclaimed by whichever event comes
// first in simulated time — even when the engine advances over both in
// one step. Before the time-ordered merge of the expiry heap and the
// crash cursor, a long advance processed every due expiry first, so a
// copy with c < e was mis-attributed to TTL expiry.
TEST(RecoverySim, ExpiryAndCrashReclaimInTimeOrder) {
  // 3-node world, g = 1: the only relay candidate between 0 and 2 is node
  // 1, so the copy's holder is forced. Churn seed 3 realizes node 1's
  // first crash after the t=10 handoff at c ~ 129.26 (asserted below),
  // with nodes 0 and 1 up at the contact.
  faults::FaultConfig fc;
  fc.mean_uptime = 300.0;
  fc.mean_downtime = 50.0;

  auto run_with_ttl = [&](Time ttl, NetworkSimReport& out) {
    faults::FaultPlan plan(fc, 3, 1000.0, 3);
    ASSERT_TRUE(plan.node_up(0, 10.0));
    ASSERT_TRUE(plan.node_up(1, 10.0));
    ASSERT_FALSE(plan.crashed_in(0, 0.0, 10.0));
    const Time crash = plan.next_crash_after(1, 10.0);
    ASSERT_GT(crash, 100.0);
    ASSERT_LT(crash, 800.0);

    groups::GroupDirectory dir(3, 1);
    // One contact hands the copy to node 1; the final event at t=950
    // advances time across both the expiry and the crash in one step.
    trace::ContactTrace t(3, {{10.0, 0, 1}, {950.0, 0, 2}});
    InjectedMessage m;
    m.src = 0;
    m.dst = 2;
    m.num_relays = 1;
    m.ttl = ttl;
    NetworkSimConfig cfg;
    cfg.faults = &plan;
    util::Rng rng(1);
    out = run_network_sim(t, dir, {m}, {}, cfg, rng);
  };

  // Expiry first (e = 60 < c): TTL reclaims the copy; the later crash
  // finds nothing to flush.
  NetworkSimReport expire_first;
  run_with_ttl(60.0, expire_first);
  EXPECT_EQ(expire_first.expired_copies, 1u);
  EXPECT_EQ(expire_first.crash_flushed_copies, 0u);

  // Crash first (c < e = 500): the crash flushes the copy; it must NOT be
  // double-counted as expired when the heap drains past e.
  NetworkSimReport crash_first;
  run_with_ttl(500.0, crash_first);
  EXPECT_EQ(crash_first.crash_flushed_copies, 1u);
  EXPECT_EQ(crash_first.expired_copies, 0u);
}

// Satellite regression, tail half: a message injected after the last
// contact event must see a buffer from which expired state has already
// been reclaimed — an injection failure against a dead copy would be an
// accounting artifact.
TEST(RecoverySim, TailInjectionSeesExpiredStateReclaimed) {
  groups::GroupDirectory dir(3, 1);
  // The only event is long before either injection matters.
  trace::ContactTrace t(3, {{5.0, 1, 2}});
  InjectedMessage first;
  first.src = 0;
  first.dst = 2;
  first.num_relays = 1;
  first.start = 0.0;
  first.ttl = 30.0;  // the source copy expires at t=30, freeing the slot
  InjectedMessage second = first;
  second.start = 100.0;  // injected after the last trace event

  NetworkSimConfig cfg;
  cfg.buffer_capacity = 1;
  util::Rng rng(1);
  auto report = run_network_sim(t, dir, {first, second}, {}, cfg, rng);
  // The first token was reclaimed at t=30 (the second is still alive when
  // the simulation ends), so the tail injection found a free slot.
  EXPECT_EQ(report.expired_copies, 1u);
  EXPECT_FALSE(report.outcomes[1].injection_failed);
}

// Suspicion must converge onto the realized blackhole set from timeout
// evidence alone: groups holding blackholes accumulate strictly more
// suspicion than clean groups.
TEST(RecoverySim, SuspicionConvergesOnBlackholeGroups) {
  util::Rng rng(5);
  auto graph = graph::random_contact_graph(30, rng, 5.0, 40.0);
  auto trace = trace::sample_poisson_trace(graph, 4000.0, rng);
  groups::GroupDirectory dir(30, 1);  // g = 1: group id == node id
  auto messages = dense_messages(rng, 60, 1);
  for (auto& m : messages) m.ttl = 1200.0;

  faults::FaultConfig fc;
  fc.blackhole_fraction = 0.3;
  faults::FaultPlan plan(fc, 30, trace.end_time(), 11);
  ASSERT_GT(plan.blackhole_count(), 0u);

  recovery::RecoveryConfig rc;
  rc.acks = true;
  rc.retx_timeout = 150.0;
  rc.suspicion_alpha = 0.4;
  recovery::SuspicionTracker tracker(rc.suspicion_alpha,
                                     rc.suspicion_threshold);
  NetworkSimConfig cfg;
  cfg.faults = &plan;
  cfg.recovery = &rc;
  cfg.recovery_seed = 17;
  cfg.suspicion = &tracker;
  auto report = run_network_sim(trace, dir, messages, {}, cfg, rng);
  ASSERT_GT(report.retransmissions, 0u);

  util::RunningStats blackhole_score, clean_score;
  for (NodeId v = 0; v < 30; ++v) {
    (plan.is_blackhole(v) ? blackhole_score : clean_score)
        .add(tracker.suspicion(v));
  }
  EXPECT_GT(blackhole_score.mean(), clean_score.mean());
  // The realized suspected set must hit blackholes, not innocents:
  // suspicion over blackhole groups clears the threshold on average.
  EXPECT_GT(report.suspicion_flips, 0u);
}

// Overload shedding under ~2x saturating load: admission control sheds
// only sheddable-priority messages, shed messages never enter the
// network, and the urgent class is not harmed relative to the unshed run.
TEST(RecoverySim, ShedsLowPriorityBeforeCollapse) {
  util::Rng seed_rng(9);
  auto graph = graph::random_contact_graph(20, seed_rng, 5.0, 40.0);
  auto trace = trace::sample_poisson_trace(graph, 3000.0, seed_rng);
  groups::GroupDirectory dir(20, 1);

  // ~2x what bandwidth=1/contact can carry: many concurrent messages in a
  // tight arrival window, half urgent (class 0), half sheddable.
  std::vector<InjectedMessage> messages;
  std::vector<std::uint8_t> priorities;
  for (int i = 0; i < 160; ++i) {
    InjectedMessage m;
    m.src = static_cast<NodeId>(seed_rng.below(20));
    m.dst = static_cast<NodeId>(seed_rng.below(19));
    if (m.dst >= m.src) ++m.dst;
    m.start = seed_rng.uniform(0.0, 1000.0);
    m.ttl = 1500.0;
    messages.push_back(m);
    priorities.push_back(i % 2 == 0 ? 0 : 1);
  }

  NetworkSimConfig cfg;
  cfg.buffer_capacity = 4;
  cfg.bandwidth.messages_per_contact = 1;

  util::Rng rng_off(2);
  auto off = run_network_sim(trace, dir, messages, priorities, cfg, rng_off);
  ASSERT_GT(off.contacts_saturated, 0u) << "load is not saturating";

  recovery::RecoveryConfig rc;
  rc.shed_occupancy = 0.75;
  rc.shed_saturation = 0.5;
  cfg.recovery = &rc;
  cfg.recovery_seed = 1;
  util::Rng rng_on(2);
  auto on = run_network_sim(trace, dir, messages, priorities, cfg, rng_on);

  EXPECT_GT(on.shed_messages, 0u);
  std::size_t urgent_off = 0, urgent_on = 0;
  for (std::size_t m = 0; m < messages.size(); ++m) {
    if (on.outcomes[m].shed) {
      // Class 0 is never shed; a shed message never entered the network.
      EXPECT_GE(priorities[m], rc.shed_priority_floor);
      EXPECT_FALSE(on.outcomes[m].delivered);
      EXPECT_EQ(on.outcomes[m].transmissions, 0u);
    }
    if (priorities[m] == 0) {
      urgent_off += off.outcomes[m].delivered ? 1 : 0;
      urgent_on += on.outcomes[m].delivered ? 1 : 0;
    }
  }
  // Shedding relieves contention: the urgent class keeps (at least) its
  // delivery, and queueing pressure drops.
  EXPECT_GE(urgent_on, urgent_off);
  EXPECT_LT(on.queue_deferred, off.queue_deferred);
}

// Both engines arm retransmissions through recovery::RetxSchedule, so
// they agree at the deadline boundary: with timeout 100, backoff 2 and no
// jitter the second timer comes due at 100 + 200 = 300, exactly the
// deadline, and is never sent. The source (node 0) meets no one, so the
// message never leaves it; the contacts only advance simulated time.
TEST(RecoverySim, RetransmissionDueAtDeadlineIsNotSent) {
  trace::ContactTrace trace(5, {{50.0, 2, 3}, {150.0, 2, 3}, {350.0, 2, 3}});
  groups::GroupDirectory dir(5, 1);  // node i is group i
  recovery::RecoveryConfig rc;
  rc.retx_timeout = 100.0;
  rc.retx_backoff = 2.0;
  rc.retx_jitter = 0.0;
  InjectedMessage m;
  m.src = 0;
  m.dst = 4;
  m.ttl = 300.0;
  m.num_relays = 1;

  NetworkSimConfig cfg;
  cfg.recovery = &rc;
  util::Rng rng(1);
  auto report = run_network_sim(trace, dir, {m}, {}, cfg, rng);
  EXPECT_FALSE(report.outcomes[0].delivered);
  EXPECT_EQ(report.outcomes[0].retransmissions, 1u);
  EXPECT_EQ(report.retransmissions, 1u);

  groups::KeyManager keys(dir, 1);
  onion::OnionCodec codec;
  routing::OnionContext ctx{&dir, &keys, &codec};
  ctx.recovery = &rc;
  sim::TraceContactModel contacts(trace);
  std::vector<GroupId> forced = {2};
  auto r = routing::SingleCopyOnionRouting(ctx).route(contacts, m, rng,
                                                      &forced);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.retransmissions, 1u);
}

}  // namespace
}  // namespace odtn::sim
