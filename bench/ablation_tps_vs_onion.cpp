// Ablation: Threshold Pivot Scheme (TPS) vs onion-group routing.
//
// Sec. VI-C of the paper notes TPS "alleviates the longer delay due to the
// use of onions" but "the final destination of a message is revealed to
// the pivot". This bench quantifies both sides of that trade on identical
// random graphs: delivery within a deadline, delay, transmissions.
//
// Message arrivals come from the odtn::traffic generator: each run routes
// a small Poisson workload (E[4] messages over the deadline window) with
// both protocols.
#include <iostream>

#include "common/bench_common.hpp"
#include "routing/onion_routing.hpp"
#include "routing/threshold_pivot.hpp"
#include "traffic/traffic.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::direct_config(args);
  bench::print_header("Ablation", "TPS (tau=3 of s=5 shares) vs onion routing",
                      "n=100, g=5; onion K in {3,5}; x = deadline", base);

  bench::Sweep sweep({"deadline_min", "onion_K3", "onion_K5", "tps",
                      "onion_K3_tx", "tps_tx"},
                     bench::deadline_sweep(), bench::Sweep::XFormat::kInt);
  sweep.run([&](double deadline, util::Table& table) {
    // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
    // so published figure/ablation tables stay pinned to their historical
    // sequences
    util::Rng rng(base.seed);
    util::RunningStats d_k3, d_k5, d_tps, tx_k3, tx_tps;
    for (std::size_t run = 0; run < base.runs; ++run) {
      auto graph = graph::random_contact_graph(base.nodes, rng, base.min_ict,
                                               base.max_ict);
      sim::PoissonContactModel contacts(graph, rng);
      groups::GroupDirectory dir(base.nodes, base.group_size, &rng);
      groups::KeyManager keys(dir, rng.next());
      onion::OnionCodec codec;
      routing::OnionContext ctx{&dir, &keys, &codec,
                                routing::CryptoMode::kNone};
      routing::SingleCopyOnionRouting onion(ctx);
      routing::ThresholdPivotRouting tps(dir, keys, {5, 3});

      // Poisson arrivals over one deadline window, E[count] = 4.
      traffic::FlowConfig flow;
      flow.rate = 4.0 / deadline;
      flow.ttl = deadline;
      flow.num_relays = 3;
      traffic::TrafficConfig workload;
      workload.flows.push_back(flow);
      workload.horizon = deadline;
      auto specs =
          traffic::TrafficPlan(workload, base.nodes, rng.next()).specs();

      for (routing::MessageSpec spec : specs) {
        spec.num_relays = 3;
        auto r3 = onion.route(contacts, spec, rng);
        d_k3.add(r3.delivered);
        tx_k3.add(static_cast<double>(r3.transmissions));
        spec.num_relays = 5;
        d_k5.add(onion.route(contacts, spec, rng).delivered);
        auto rt = tps.route(contacts, spec, rng);
        d_tps.add(rt.delivered);
        tx_tps.add(static_cast<double>(rt.transmissions));
      }
    }
    table.cell(d_k3.mean());
    table.cell(d_k5.mean());
    table.cell(d_tps.mean());
    table.cell(tx_k3.mean(), 2);
    table.cell(tx_tps.mean(), 2);
  });
  sweep.print(std::cout);
  std::cout << "# TPS buys delivery speed with parallel 2-hop shares, but "
               "reveals dst to the pivot;\n# onion routing never does. TPS "
               "also spends more transmissions per message.\n";
  bench::finish(base, args, timer);
  return 0;
}
