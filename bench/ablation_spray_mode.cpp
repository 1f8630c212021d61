// Ablation: the two readings of Algorithm 2's spray phase.
//
// kDirectToFirstGroup — the source hands all L copies to members of R_1
// (Algorithm 2 literal). kSprayAndWait — the source sprays L-1 copies to
// arbitrary first-met carriers who then wait for R_1 (the "source
// spray-and-wait" augmentation the paper simulates; cost bound 1 + 2(L-1)
// + KL). This bench shows why the paper adopted the augmentation: carriers
// are found fast, so copies enter the pipeline sooner.
#include <iostream>

#include "common/bench_common.hpp"
#include "routing/onion_routing.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::direct_config(args);
  base.copies = 3;
  bench::print_header("Ablation", "Multi-copy spray strategy",
                      "n=100, K=3, g=5, L=3; x = deadline", base);

  bench::Sweep sweep({"deadline_min", "direct_to_R1", "spray_and_wait",
                      "direct_tx", "spray_tx"},
                     bench::deadline_sweep(), bench::Sweep::XFormat::kInt);
  sweep.run([&](double deadline, util::Table& table) {
    // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
    // so published figure/ablation tables stay pinned to their historical
    // sequences
    util::Rng rng(base.seed);
    util::RunningStats d_direct, d_spray, tx_direct, tx_spray;
    for (std::size_t run = 0; run < base.runs; ++run) {
      auto graph = graph::random_contact_graph(base.nodes, rng, base.min_ict,
                                               base.max_ict);
      sim::PoissonContactModel contacts(graph, rng);
      groups::GroupDirectory dir(base.nodes, base.group_size, &rng);
      groups::KeyManager keys(dir, rng.next());
      onion::OnionCodec codec;
      routing::OnionContext ctx{&dir, &keys, &codec,
                                routing::CryptoMode::kNone};
      routing::MultiCopyOnionRouting direct(
          ctx, routing::SprayMode::kDirectToFirstGroup);
      routing::MultiCopyOnionRouting spray(ctx,
                                           routing::SprayMode::kSprayAndWait);

      NodeId src = static_cast<NodeId>(rng.below(base.nodes));
      NodeId dst = static_cast<NodeId>(rng.below(base.nodes - 1));
      if (dst >= src) ++dst;
      auto groups = dir.select_relay_groups(src, dst, base.num_relays, rng);

      routing::MessageSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.ttl = deadline;
      spec.num_relays = base.num_relays;
      spec.copies = base.copies;
      auto rd = direct.route(contacts, spec, rng, &groups);
      auto rs = spray.route(contacts, spec, rng, &groups);
      d_direct.add(rd.delivered);
      d_spray.add(rs.delivered);
      tx_direct.add(static_cast<double>(rd.transmissions));
      tx_spray.add(static_cast<double>(rs.transmissions));
    }
    table.cell(d_direct.mean());
    table.cell(d_spray.mean());
    table.cell(tx_direct.mean(), 2);
    table.cell(tx_spray.mean(), 2);
  });
  sweep.print(std::cout);
  bench::finish(base, args, timer);
  return 0;
}
