// Micro-benchmarks (google-benchmark) for the simulation engine and the
// end-to-end protocol step: how many experiment runs per second the figure
// benches can afford.
//
// Driver flags (--json / --baseline / --max-regression-pct): see
// bench_gate.hpp — the shared median-capture + regression-gate driver.
#include <benchmark/benchmark.h>

#include "bench_gate.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "recovery/recovery.hpp"
#include "routing/baselines.hpp"
#include "routing/onion_routing.hpp"
#include "sim/contact_model.hpp"
#include "sim/network_sim.hpp"
#include "trace/synthetic.hpp"
#include "traffic/traffic.hpp"

// Global allocation counter: lets the contact-query benches assert (and
// record) that the steady-state query path performs zero heap allocations.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace odtn;

void BM_RandomGraphGeneration(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(1);
  auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::random_contact_graph(n, rng));
  }
}
BENCHMARK(BM_RandomGraphGeneration)->Arg(100)->Arg(500);

void BM_PoissonFirstContact(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(2);
  auto g = graph::random_contact_graph(100, rng);
  sim::PoissonContactModel model(g, rng);
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
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(2);
  auto g = graph::random_contact_graph(100, rng);
  sim::PoissonContactModel model(g, rng);
  groups::GroupDirectory dir(100, 5);
  std::vector<NodeId> from;
  for (NodeId m : dir.members(1)) from.push_back(m);
  std::vector<NodeId> to;
  for (NodeId m : dir.members(2)) to.push_back(m);
  sim::ContactQuery plan = model.prepare(from, to);

  const std::uint64_t allocs_before = g_alloc_count.load();
  std::uint64_t queries = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.first_cross_contact(plan, 0.0, 1e9));
    ++queries;
  }
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;
  state.counters["allocs_per_query"] =
      queries == 0 ? 0.0
                   : static_cast<double>(allocs) / static_cast<double>(queries);
}
BENCHMARK(BM_FirstCrossContact);

// A full onion-hop polling pattern: (re)prepare the holder -> next-group
// plan once, then poll it through a string of fault-retry style queries.
void BM_GroupPolling(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(8);
  auto g = graph::random_contact_graph(100, rng);
  sim::PoissonContactModel model(g, rng);
  groups::GroupDirectory dir(100, 5);
  std::vector<NodeId> targets;
  for (NodeId m : dir.members(3)) targets.push_back(m);
  const NodeId holder = 0;
  sim::ContactQuery plan;

  const std::uint64_t allocs_before = g_alloc_count.load();
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
  const std::uint64_t allocs = g_alloc_count.load() - allocs_before;
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

void BM_SingleCopyRoute(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(3);
  auto g = graph::random_contact_graph(100, rng);
  groups::GroupDirectory dir(100, 5);
  groups::KeyManager keys(dir, 3);
  onion::OnionCodec codec;
  sim::PoissonContactModel contacts(g, rng);
  routing::OnionContext ctx{&dir, &keys, &codec, routing::CryptoMode::kNone};
  routing::SingleCopyOnionRouting protocol(ctx);
  routing::MessageSpec spec;
  spec.src = 0;
  spec.dst = 99;
  spec.ttl = 1e6;
  spec.num_relays = 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.route(contacts, spec, rng));
  }
}
BENCHMARK(BM_SingleCopyRoute);

void BM_SingleCopyRouteRealCrypto(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(4);
  auto g = graph::random_contact_graph(100, rng);
  groups::GroupDirectory dir(100, 5);
  groups::KeyManager keys(dir, 4);
  onion::OnionCodec codec;
  sim::PoissonContactModel contacts(g, rng);
  routing::OnionContext ctx{&dir, &keys, &codec, routing::CryptoMode::kReal};
  routing::SingleCopyOnionRouting protocol(ctx);
  routing::MessageSpec spec;
  spec.src = 0;
  spec.dst = 99;
  spec.ttl = 1e6;
  spec.num_relays = 3;
  spec.payload = util::to_bytes("benchmark payload");
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.route(contacts, spec, rng));
  }
}
BENCHMARK(BM_SingleCopyRouteRealCrypto);

void BM_MultiCopyRoute(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(5);
  auto g = graph::random_contact_graph(100, rng);
  groups::GroupDirectory dir(100, 5);
  groups::KeyManager keys(dir, 5);
  onion::OnionCodec codec;
  sim::PoissonContactModel contacts(g, rng);
  routing::OnionContext ctx{&dir, &keys, &codec, routing::CryptoMode::kNone};
  routing::MultiCopyOnionRouting protocol(ctx);
  routing::MessageSpec spec;
  spec.src = 0;
  spec.dst = 99;
  spec.ttl = 1e6;
  spec.num_relays = 3;
  spec.copies = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(protocol.route(contacts, spec, rng));
  }
}
BENCHMARK(BM_MultiCopyRoute)->Arg(1)->Arg(3)->Arg(5);

void BM_EpidemicRoute(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(6);
  auto g = graph::random_contact_graph(100, rng);
  sim::PoissonContactModel contacts(g, rng);
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

// One fully loaded network-sim run: Poisson workload with priorities over
// a pre-sampled trace, finite per-contact bandwidth and finite buffers —
// priority-ordered, budgeted contact drainage end to end.
void BM_LoadedSimStep(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(9);
  auto g = graph::random_contact_graph(100, rng);
  auto trace = trace::sample_poisson_trace(g, 2400.0, rng);
  groups::GroupDirectory dir(100, 5, &rng);

  traffic::TrafficConfig workload;
  traffic::FlowConfig flow;
  flow.rate = 0.25;
  flow.ttl = 1800.0;
  workload.flows.push_back(flow);
  flow.priority = 1;
  workload.flows.push_back(flow);
  workload.horizon = 600.0;
  traffic::TrafficPlan plan(workload, 100, rng.next());

  sim::NetworkSimConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.bandwidth.messages_per_contact = 2;
  for (auto _ : state) {
    // odtn-lint: allow(rng) — bench-local stream (same pinned sequence).
    util::Rng run_rng(11);
    benchmark::DoNotOptimize(sim::run_network_sim(
        trace, dir, plan.specs(), plan.priorities(), cfg, run_rng));
  }
}
BENCHMARK(BM_LoadedSimStep)->Unit(benchmark::kMillisecond);

// BM_LoadedSimStep with the full recovery stack on (ACK vaccines,
// jittered retransmission, suspicion-biased retries, overload shedding) —
// the cost of the reliability layer on the loaded drainage path.
void BM_RecoveryStep(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream (same pinned sequence as
  // BM_LoadedSimStep).
  util::Rng rng(9);
  auto g = graph::random_contact_graph(100, rng);
  auto trace = trace::sample_poisson_trace(g, 2400.0, rng);
  groups::GroupDirectory dir(100, 5, &rng);

  traffic::TrafficConfig workload;
  traffic::FlowConfig flow;
  flow.rate = 0.25;
  flow.ttl = 1800.0;
  workload.flows.push_back(flow);
  flow.priority = 1;
  workload.flows.push_back(flow);
  workload.horizon = 600.0;
  traffic::TrafficPlan plan(workload, 100, rng.next());

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
    // odtn-lint: allow(rng) — bench-local stream (same pinned sequence).
    util::Rng run_rng(11);
    recovery::SuspicionTracker tracker(rc.suspicion_alpha,
                                       rc.suspicion_threshold);
    cfg.suspicion = &tracker;
    benchmark::DoNotOptimize(sim::run_network_sim(
        trace, dir, plan.specs(), plan.priorities(), cfg, run_rng));
  }
}
BENCHMARK(BM_RecoveryStep)->Unit(benchmark::kMillisecond);

// BM_LoadedSimStep with wire-accurate cell accounting on: each transfer
// charges its cell cost against the (cell-denominated) contact budget —
// the cost of the circuit layer on the loaded drainage path.
void BM_WireSimStep(benchmark::State& state) {
  // odtn-lint: allow(rng) — bench-local stream (same pinned sequence as
  // BM_LoadedSimStep).
  util::Rng rng(9);
  auto g = graph::random_contact_graph(100, rng);
  auto trace = trace::sample_poisson_trace(g, 2400.0, rng);
  groups::GroupDirectory dir(100, 5, &rng);

  traffic::TrafficConfig workload;
  traffic::FlowConfig flow;
  flow.rate = 0.25;
  flow.ttl = 1800.0;
  workload.flows.push_back(flow);
  flow.priority = 1;
  workload.flows.push_back(flow);
  workload.horizon = 600.0;
  traffic::TrafficPlan plan(workload, 100, rng.next());

  sim::NetworkSimConfig cfg;
  cfg.buffer_capacity = 8;
  cfg.bandwidth.messages_per_contact = 4;  // cells, not messages
  cfg.cells_per_message = 2;
  cfg.cell_size = 512;
  for (auto _ : state) {
    // odtn-lint: allow(rng) — bench-local stream (same pinned sequence).
    util::Rng run_rng(11);
    benchmark::DoNotOptimize(sim::run_network_sim(
        trace, dir, plan.specs(), plan.priorities(), cfg, run_rng));
  }
}
BENCHMARK(BM_WireSimStep)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return odtn::bench_gate::run(argc, argv, "micro_sim");
}
