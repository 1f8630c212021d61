// Ablation: how the non-anonymous baselines stack up on structured
// contact graphs — the claim behind the paper's related-work Sec. VI-A
// ("the use of past contact history significantly improves the delivery
// rate for a given forwarding cost").
//
// Community-structured networks (where history is informative) are the
// regime where PRoPHET earns its keep: epidemic-level delivery at a
// fraction of the copies. Onion routing is included to show what the
// anonymity property costs relative to each.
#include <iostream>

#include "common/bench_common.hpp"
#include "routing/baselines.hpp"
#include "routing/onion_routing.hpp"
#include "routing/prophet.hpp"
#include "trace/synthetic.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::base_config(args);
  bench::print_header("Ablation", "History-based routing on community graphs",
                      "n=60, 3 communities (10x slowdown), K=3, g=5; "
                      "message starts after 1000 min of history",
                      base);

  // PRoPHET maintains an n^2 predictability table per event; a fifth of
  // the default runs already gives tight means.
  std::size_t runs = std::max<std::size_t>(20, base.runs / 5);
  util::Table table({"deadline_min", "prophet", "epidemic", "spray3",
                     "direct", "onion_K3", "prophet_carriers", "epi_tx"});
  for (double deadline : {120.0, 240.0, 480.0, 960.0, 1800.0}) {
    // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
    // so published figure/ablation tables stay pinned to their historical
    // sequences
    util::Rng rng(base.seed);
    util::RunningStats d_pro, d_epi, d_sw, d_dir, d_on, pro_car, epi_tx;
    for (std::size_t run = 0; run < runs; ++run) {
      auto graph = graph::community_contact_graph(60, 3, 10.0, rng, 10.0,
                                                  120.0);
      auto trace = trace::sample_poisson_trace(graph, 1000.0 + deadline, rng);
      sim::TraceContactModel contacts(trace);
      groups::GroupDirectory dir(60, 5, &rng);
      groups::KeyManager keys(dir, rng.next());
      onion::OnionCodec codec;
      routing::OnionContext ctx{&dir, &keys, &codec,
                                routing::CryptoMode::kNone};

      NodeId src = static_cast<NodeId>(rng.below(60));
      NodeId dst = static_cast<NodeId>(rng.below(59));
      if (dst >= src) ++dst;

      routing::MessageSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.start = 1000.0;  // history available before the message exists
      spec.ttl = deadline;
      spec.num_relays = 3;

      routing::ProphetRouting prophet;
      auto rp = prophet.route(trace, spec);
      d_pro.add(rp.delivered);
      pro_car.add(static_cast<double>(rp.carriers));

      routing::EpidemicRouting epidemic;
      auto re = epidemic.route(contacts, spec);
      d_epi.add(re.delivered);
      epi_tx.add(static_cast<double>(re.transmissions));

      routing::SprayAndWaitRouting spray;
      auto spray_spec = spec;
      spray_spec.copies = 3;
      d_sw.add(spray.route(contacts, spray_spec).delivered);
      // Direct delivery: spray-and-wait with one copy.
      spray_spec.copies = 1;
      d_dir.add(spray.route(contacts, spray_spec).delivered);

      routing::SingleCopyOnionRouting onion_p(ctx);
      d_on.add(onion_p.route(contacts, spec, rng).delivered);
    }
    table.new_row();
    table.cell(static_cast<std::int64_t>(deadline));
    table.cell(d_pro.mean());
    table.cell(d_epi.mean());
    table.cell(d_sw.mean());
    table.cell(d_dir.mean());
    table.cell(d_on.mean());
    table.cell(pro_car.mean(), 1);
    table.cell(epi_tx.mean(), 1);
  }
  table.print(std::cout);
  std::cout << "# PRoPHET approaches epidemic delivery with a fraction of "
               "the carriers; direct\n# delivery suffers across communities; "
               "onion routing pays its anonymity toll on top.\n";
  bench::finish(base, args, timer);
  return 0;
}
