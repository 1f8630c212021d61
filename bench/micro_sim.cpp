// Micro-benchmarks (google-benchmark) for the simulation engine and the
// end-to-end protocol step: how many experiment runs per second the figure
// benches can afford.
//
// Driver flags (--json / --baseline / --max-regression-pct): see
// bench_gate.hpp — the shared median-capture + regression-gate driver.
#include <benchmark/benchmark.h>

#include "alloc_counter.hpp"
#include "bench_gate.hpp"
#include "common/realization.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "faults/faults.hpp"
#include "recovery/recovery.hpp"
#include "routing/baselines.hpp"
#include "routing/onion_routing.hpp"
#include "routing/utility_forwarder.hpp"
#include "sim/contact_model.hpp"
#include "sim/network_sim.hpp"
#include "trace/synthetic.hpp"
#include "traffic/traffic.hpp"

namespace {

using namespace odtn;

// Every bench draws its inputs from a bench::Stream with a fixed seed, so a
// recording in BENCH_micro_sim.json always times the same workload. Table
// II: n = 100, inter-contact times uniform in [10, 360], g = 5.
const core::ExperimentConfig kTableII;

void BM_RandomGraphGeneration(benchmark::State& state) {
  bench::Stream s(1);
  core::ExperimentConfig config;
  config.nodes = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.random_graph(config));
  }
}
BENCHMARK(BM_RandomGraphGeneration)->Arg(100)->Arg(500);

// One contact trace of the loaded stack (ablation_recovery's, e2ebench's
// loaded workloads): a Table II graph over n = 100 nodes, sampled over the
// traffic horizon plus the TTL, 600 + 1800 = 2400 (about 120k events).
void BM_PoissonTraceSample(benchmark::State& state) {
  bench::Stream s(9);
  auto g = s.random_graph(kTableII);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.poisson_trace(g, 2400.0));
  }
}
BENCHMARK(BM_PoissonTraceSample)->Unit(benchmark::kMillisecond);

void BM_PoissonFirstContact(benchmark::State& state) {
  bench::Stream s(2);
  auto g = s.random_graph(kTableII);
  auto model = s.contacts(g);
  std::vector<NodeId> targets;
  for (NodeId v = 1; v <= 5; ++v) targets.push_back(v);
  const NodeId holder = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.first_cross_contact(
        std::span<const NodeId>(&holder, 1), targets, 0.0, 1e9));
  }
}
BENCHMARK(BM_PoissonFirstContact);

// The prepared-plan primitive on its own: one Exp(total) draw plus one
// binary-search pick per query, zero allocations (recorded as the
// allocs_per_query counter — the acceptance gate for the plan API).
void BM_FirstCrossContact(benchmark::State& state) {
  bench::Stream s(2);
  auto g = s.random_graph(kTableII);
  auto model = s.contacts(g);
  groups::GroupDirectory dir(100, 5);
  std::vector<NodeId> from;
  for (NodeId m : dir.members(1)) from.push_back(m);
  std::vector<NodeId> to;
  for (NodeId m : dir.members(2)) to.push_back(m);
  sim::ContactQuery plan = model.prepare(from, to);

  const std::uint64_t allocs_before = bench::alloc_count();
  std::uint64_t queries = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.first_cross_contact(plan, 0.0, 1e9));
    ++queries;
  }
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;
  state.counters["allocs_per_query"] =
      queries == 0 ? 0.0
                   : static_cast<double>(allocs) / static_cast<double>(queries);
}
BENCHMARK(BM_FirstCrossContact);

// A full onion-hop polling pattern: (re)prepare the holder -> next-group
// plan once, then poll it through a string of fault-retry style queries.
void BM_GroupPolling(benchmark::State& state) {
  bench::Stream s(8);
  auto g = s.random_graph(kTableII);
  auto model = s.contacts(g);
  groups::GroupDirectory dir(100, 5);
  std::vector<NodeId> targets;
  for (NodeId m : dir.members(3)) targets.push_back(m);
  const NodeId holder = 0;
  sim::ContactQuery plan;

  const std::uint64_t allocs_before = bench::alloc_count();
  std::uint64_t iters = 0;
  for (auto _ : state) {
    model.prepare(plan, std::span<const NodeId>(&holder, 1), targets);
    Time after = 0.0;
    for (int poll = 0; poll < 16; ++poll) {
      auto c = model.first_cross_contact(plan, after, 1e9);
      if (!c.has_value()) break;
      after = std::nextafter(c->time, kTimeInfinity);
    }
    ++iters;
  }
  const std::uint64_t allocs = bench::alloc_count() - allocs_before;
  // First iteration's prepare may grow the plan buffers; steady state is 0.
  state.counters["allocs_per_hop"] =
      iters == 0 ? 0.0
                 : static_cast<double>(allocs) / static_cast<double>(iters);
}
BENCHMARK(BM_GroupPolling);

void BM_TraceFirstContact(benchmark::State& state) {
  auto trace = trace::make_infocom_like(1);
  sim::TraceContactModel model(trace);
  std::vector<NodeId> targets = {5, 6, 7, 8, 9};
  const NodeId holder = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.first_cross_contact(
        std::span<const NodeId>(&holder, 1), targets, 40000.0, 3e5));
  }
}
BENCHMARK(BM_TraceFirstContact);

// The onion route benches' stack: a Table II graph and its live contacts
// from a stream seeded `seed`, the identity g = 5 directory with keys from
// the same seed, and one message 0 -> 99 (K = 3, deadline 1e6).
struct RouteStack {
  bench::Stream s;
  graph::ContactGraph graph = s.random_graph(kTableII);
  groups::GroupDirectory dir{100, 5};
  groups::KeyManager keys;
  onion::OnionCodec codec;
  sim::PoissonContactModel contacts = s.contacts(graph);
  routing::MessageSpec spec;

  explicit RouteStack(std::uint64_t seed) : s(seed), keys(dir, seed) {
    spec.dst = 99;
    spec.ttl = 1e6;
  }
  routing::OnionContext context(routing::CryptoMode crypto) const {
    return {&dir, &keys, &codec, crypto};
  }
};

void BM_SingleCopyRoute(benchmark::State& state) {
  RouteStack r(3);
  routing::SingleCopyOnionRouting protocol(
      r.context(routing::CryptoMode::kNone));
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.route(r.contacts, r.spec, r.s.rng()));
  }
}
BENCHMARK(BM_SingleCopyRoute);

void BM_SingleCopyRouteRealCrypto(benchmark::State& state) {
  RouteStack r(4);
  routing::SingleCopyOnionRouting protocol(
      r.context(routing::CryptoMode::kReal));
  r.spec.payload = util::to_bytes("benchmark payload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.route(r.contacts, r.spec, r.s.rng()));
  }
}
BENCHMARK(BM_SingleCopyRouteRealCrypto);

void BM_MultiCopyRoute(benchmark::State& state) {
  RouteStack r(5);
  routing::MultiCopyOnionRouting protocol(r.context(routing::CryptoMode::kNone));
  r.spec.copies = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.route(r.contacts, r.spec, r.s.rng()));
  }
}
BENCHMARK(BM_MultiCopyRoute)->Arg(1)->Arg(3)->Arg(5);

void BM_EpidemicRoute(benchmark::State& state) {
  bench::Stream s(6);
  auto g = s.random_graph(kTableII);
  auto contacts = s.contacts(g);
  routing::EpidemicRouting protocol;
  routing::MessageSpec spec;
  spec.src = 0;
  spec.dst = 99;
  spec.ttl = 1e6;
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.route(contacts, spec));
  }
}
BENCHMARK(BM_EpidemicRoute);

void BM_ExperimentRun(benchmark::State& state) {
  core::ExperimentConfig cfg;
  cfg.runs = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Experiment(cfg).run(core::RandomGraphScenario{}));
  }
}
BENCHMARK(BM_ExperimentRun)->Unit(benchmark::kMillisecond);

// Same experiment with metrics collection on: the cost of the per-run
// registries, instrumented protocols, and the ordered metrics fold,
// relative to BM_ExperimentRun (the "disabled" hot path must stay within
// 5% of the pre-metrics baseline; see BENCH_micro_sim.json).
void BM_ExperimentRunMetrics(benchmark::State& state) {
  core::ExperimentConfig cfg;
  cfg.runs = 10;
  cfg.collect_metrics = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::Experiment(cfg).run(core::RandomGraphScenario{}));
  }
}
BENCHMARK(BM_ExperimentRunMetrics)->Unit(benchmark::kMillisecond);

// Workload expansion throughput: a mixed Poisson/deterministic/MMPP
// multi-flow TrafficPlan over a 600-unit horizon. Measures the open-loop
// generator alone (sort included) — the fixed cost every loaded run pays
// before the simulator starts.
void BM_TrafficGen(benchmark::State& state) {
  traffic::TrafficConfig config;
  traffic::FlowConfig flow;
  flow.rate = static_cast<double>(state.range(0)) / 3.0;
  flow.arrival = traffic::Arrival::kPoisson;
  config.flows.push_back(flow);
  flow.arrival = traffic::Arrival::kDeterministic;
  flow.priority = 1;
  config.flows.push_back(flow);
  flow.arrival = traffic::Arrival::kMmpp;
  flow.priority = 2;
  config.flows.push_back(flow);
  config.horizon = 600.0;
  std::uint64_t seed = 7;
  for (auto _ : state) {
    traffic::TrafficPlan plan(config, 100, seed++);
    benchmark::DoNotOptimize(plan.size());
  }
}
BENCHMARK(BM_TrafficGen)->Arg(1)->Arg(10);

// The stack the network-sim step benches share: a 100-node random
// contact graph, its Poisson trace over the 600-unit workload horizon plus
// one 1800-unit TTL, a g = 5 directory and a traffic plan, all from one
// stream; each run simulates on a second one.
struct LoadedStack {
  bench::Stream s{9};
  graph::ContactGraph graph = s.random_graph(kTableII);
  trace::ContactTrace trace = s.poisson_trace(graph, 2400.0);
  groups::GroupDirectory dir = s.directory(kTableII);
  traffic::TrafficPlan plan;

  explicit LoadedStack(const traffic::TrafficConfig& workload)
      : plan(workload, 100, s.rng().next()) {}

  sim::NetworkSimReport run(const sim::NetworkSimConfig& cfg) const {
    bench::Stream run_stream(11);
    return sim::run_network_sim(trace, dir, plan.specs(), plan.priorities(),
                                cfg, run_stream.rng());
  }
};

// Two Poisson flows of rate 0.25, priority classes 0 and 1, TTL 1800.
traffic::TrafficConfig two_class_workload() {
  traffic::TrafficConfig workload;
  traffic::FlowConfig flow;
  flow.rate = 0.25;
  flow.ttl = 1800.0;
  workload.flows.push_back(flow);
  flow.priority = 1;
  workload.flows.push_back(flow);
  workload.horizon = 600.0;
  return workload;
}

// One fully loaded network-sim run: Poisson workload with priorities over
// a pre-sampled trace, finite per-contact bandwidth and finite buffers —
// priority-ordered, budgeted contact drainage end to end.
void BM_LoadedSimStep(benchmark::State& state) {
  const LoadedStack stack(two_class_workload());
  sim::NetworkSimConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.bandwidth.messages_per_contact = 2;
  for (auto _ : state) benchmark::DoNotOptimize(stack.run(cfg));
}
BENCHMARK(BM_LoadedSimStep)->Unit(benchmark::kMillisecond);

// BM_LoadedSimStep with the full recovery stack on (ACK vaccines,
// jittered retransmission, suspicion-biased retries, overload shedding) —
// the cost of the reliability layer on the loaded drainage path.
void BM_RecoveryStep(benchmark::State& state) {
  const LoadedStack stack(two_class_workload());
  recovery::RecoveryConfig rc;
  rc.acks = true;
  rc.retx_timeout = 150.0;
  rc.suspicion_alpha = 0.3;
  rc.shed_occupancy = 0.9;
  rc.shed_saturation = 0.75;
  sim::NetworkSimConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.bandwidth.messages_per_contact = 2;
  cfg.recovery = &rc;
  cfg.recovery_seed = 13;
  for (auto _ : state) {
    recovery::SuspicionTracker tracker(rc.suspicion_alpha,
                                       rc.suspicion_threshold);
    cfg.suspicion = &tracker;
    benchmark::DoNotOptimize(stack.run(cfg));
  }
}
BENCHMARK(BM_RecoveryStep)->Unit(benchmark::kMillisecond);

// BM_LoadedSimStep with wire-accurate cell accounting on: each transfer
// charges its cell cost against the (cell-denominated) contact budget —
// the cost of the circuit layer on the loaded drainage path.
void BM_WireSimStep(benchmark::State& state) {
  const LoadedStack stack(two_class_workload());
  sim::NetworkSimConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.bandwidth.messages_per_contact = 4;  // cells, not messages
  cfg.cells_per_message = 2;
  cfg.cell_size = 512;
  for (auto _ : state) benchmark::DoNotOptimize(stack.run(cfg));
}
BENCHMARK(BM_WireSimStep)->Unit(benchmark::kMillisecond);

// The utility forwarder's loaded run (the loaded_utility stack of
// e2ebench): one Poisson flow of rate 0.8 with four spray tickets a
// message, two transfers per contact, eight-message drop-oldest buffers.
// Each iteration learns from scratch with a fresh forwarder.
void BM_UtilitySimStep(benchmark::State& state) {
  traffic::TrafficConfig workload;
  traffic::FlowConfig flow;
  flow.rate = 0.8;
  flow.ttl = 1800.0;
  flow.copies = 4;
  workload.flows.push_back(flow);
  workload.horizon = 600.0;
  const LoadedStack stack(workload);
  sim::NetworkSimConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.policy = sim::BufferPolicy::kDropOldest;
  cfg.bandwidth.messages_per_contact = 2;
  for (auto _ : state) {
    routing::UtilityForwarder forwarder(100);
    cfg.utility = &forwarder;
    benchmark::DoNotOptimize(stack.run(cfg));
  }
}
BENCHMARK(BM_UtilitySimStep)->Unit(benchmark::kMillisecond);

// BM_LoadedSimStep under faults without recovery: churn (mean up 400, down
// 100), 20% mid-contact transfer failures and 20% blackholes — the fault
// gate's cost on the loaded drainage path. The plan's link-loss stream
// advances as the run queries it, so each iteration builds its own.
void BM_FaultSimStep(benchmark::State& state) {
  const LoadedStack stack(two_class_workload());
  faults::FaultConfig fc;
  fc.mean_uptime = 400.0;
  fc.mean_downtime = 100.0;
  fc.p_fail = 0.2;
  fc.blackhole_fraction = 0.2;
  sim::NetworkSimConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.bandwidth.messages_per_contact = 2;
  for (auto _ : state) {
    faults::FaultPlan plan(fc, 100, stack.trace.end_time(), 15);
    cfg.faults = &plan;
    benchmark::DoNotOptimize(stack.run(cfg));
  }
}
BENCHMARK(BM_FaultSimStep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return odtn::bench_gate::run(argc, argv, "micro_sim");
}
