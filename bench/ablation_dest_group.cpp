// Ablation: ARDEN's destination-anonymity option ("the last hop forms an
// onion group", mentioned in Secs. III and V of the paper as an
// implementation difference between the abstract model and ARDEN).
//
// Direct delivery reveals dst to the last relay; group delivery hides dst
// among its g group members at the price of an intra-group walk. This
// bench measures the delivery/delay/cost impact per group size.
#include <iostream>

#include "common/bench_common.hpp"
#include "routing/onion_routing.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::direct_config(args);
  base.ttl = 1800.0;
  bench::print_header("Ablation", "Destination-group delivery on/off",
                      "n=100, K=3, L=1, T=1800; x = group size", base);

  util::Table table({"group_size", "direct_delivery", "group_delivery",
                     "direct_delay", "group_delay", "direct_tx", "group_tx",
                     "dst_hidden_among"});
  for (std::size_t g : {2u, 5u, 10u}) {
    // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
    // so published figure/ablation tables stay pinned to their historical
    // sequences
    util::Rng rng(base.seed);
    util::RunningStats d_dir, d_grp, t_dir, t_grp, tx_dir, tx_grp;
    for (std::size_t run = 0; run < base.runs; ++run) {
      auto graph = graph::random_contact_graph(base.nodes, rng, base.min_ict,
                                               base.max_ict);
      sim::PoissonContactModel contacts(graph, rng);
      groups::GroupDirectory dir(base.nodes, g, &rng);
      groups::KeyManager keys(dir, rng.next());
      onion::OnionCodec codec;
      routing::OnionContext ctx{&dir, &keys, &codec,
                                routing::CryptoMode::kNone};
      routing::SingleCopyOnionRouting protocol(ctx);

      NodeId src = static_cast<NodeId>(rng.below(base.nodes));
      NodeId dst = static_cast<NodeId>(rng.below(base.nodes - 1));
      if (dst >= src) ++dst;

      routing::MessageSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.ttl = base.ttl;
      spec.num_relays = base.num_relays;
      auto rd = protocol.route(contacts, spec, rng);
      d_dir.add(rd.delivered);
      if (rd.delivered) {
        t_dir.add(rd.delay);
        tx_dir.add(static_cast<double>(rd.transmissions));
      }
      spec.destination_group_delivery = true;
      auto rg = protocol.route(contacts, spec, rng);
      d_grp.add(rg.delivered);
      if (rg.delivered) {
        t_grp.add(rg.delay);
        tx_grp.add(static_cast<double>(rg.transmissions));
      }
    }
    table.new_row();
    table.cell(static_cast<std::int64_t>(g));
    table.cell(d_dir.mean());
    table.cell(d_grp.mean());
    table.cell(t_dir.mean(), 1);
    table.cell(t_grp.mean(), 1);
    table.cell(tx_dir.mean(), 2);
    table.cell(tx_grp.mean(), 2);
    table.cell(static_cast<std::int64_t>(g));
  }
  table.print(std::cout);
  std::cout << "# Group delivery hides the destination among g group "
               "members from the last relay;\n# the anycast entry into the "
               "group offsets much of the intra-group walk's delay.\n";
  bench::finish(base, args, timer);
  return 0;
}
