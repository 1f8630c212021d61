// Ablation: the three anonymous-DTN schemes of the paper's Sec. VI-C on
// one playing field — onion-group routing (this paper / ARDEN), the
// Threshold Pivot Scheme, and ALAR — plus epidemic as the non-anonymous
// ceiling. Identical sampled contact traces per run; columns report
// delivery within the deadline and mean transmissions.
//
// What each scheme concedes (not visible in the numbers): onion routing
// hides both endpoints from everyone; TPS reveals the destination to the
// pivot; ALAR does not protect the sender's identifier at all, only the
// sender's *location* (segments leave via different neighbors).
#include <iostream>

#include "common/bench_common.hpp"
#include "routing/alar.hpp"
#include "routing/baselines.hpp"
#include "routing/onion_routing.hpp"
#include "routing/threshold_pivot.hpp"
#include "trace/synthetic.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::base_config(args);
  bench::print_header("Ablation",
                      "Source-hiding schemes: onion vs TPS vs ALAR",
                      "n=100, g=5, onion K=3, TPS tau=3/s=5, ALAR s=4",
                      base);

  // ALAR floods a sampled trace per run; a quarter of the default runs
  // keeps the bench snappy with tight means.
  std::size_t runs = std::max<std::size_t>(25, base.runs / 4);
  util::Table table({"deadline_min", "onion", "tps", "alar", "epidemic",
                     "onion_tx", "tps_tx", "alar_tx", "epi_tx"});
  for (double deadline : {120.0, 240.0, 360.0, 600.0, 900.0, 1800.0}) {
    // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
    // so published figure/ablation tables stay pinned to their historical
    // sequences
    util::Rng rng(base.seed);
    util::RunningStats d_on, d_tps, d_alar, d_epi;
    util::RunningStats t_on, t_tps, t_alar, t_epi;
    for (std::size_t run = 0; run < runs; ++run) {
      auto graph = graph::random_contact_graph(base.nodes, rng, base.min_ict,
                                               base.max_ict);
      auto trace = trace::sample_poisson_trace(graph, deadline, rng);
      sim::TraceContactModel contacts(trace);
      groups::GroupDirectory dir(base.nodes, base.group_size, &rng);
      groups::KeyManager keys(dir, rng.next());
      onion::OnionCodec codec;
      routing::OnionContext ctx{&dir, &keys, &codec,
                                routing::CryptoMode::kNone};
      routing::SingleCopyOnionRouting onion_p(ctx);
      routing::ThresholdPivotRouting tps_p(dir, keys, {5, 3});
      routing::AlarRouting alar_p(routing::AlarOptions{4, 4});
      routing::EpidemicRouting epi_p;

      NodeId src = static_cast<NodeId>(rng.below(base.nodes));
      NodeId dst = static_cast<NodeId>(rng.below(base.nodes - 1));
      if (dst >= src) ++dst;

      routing::MessageSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.ttl = deadline;
      spec.num_relays = 3;

      auto r1 = onion_p.route(contacts, spec, rng);
      d_on.add(r1.delivered);
      t_on.add(static_cast<double>(r1.transmissions));
      auto r2 = tps_p.route(contacts, spec, rng);
      d_tps.add(r2.delivered);
      t_tps.add(static_cast<double>(r2.transmissions));
      auto r3 = alar_p.route(trace, spec);
      d_alar.add(r3.delivered);
      t_alar.add(static_cast<double>(r3.transmissions));
      auto r4 = epi_p.route(contacts, spec);
      d_epi.add(r4.delivered);
      t_epi.add(static_cast<double>(r4.transmissions));
    }
    table.new_row();
    table.cell(static_cast<std::int64_t>(deadline));
    table.cell(d_on.mean());
    table.cell(d_tps.mean());
    table.cell(d_alar.mean());
    table.cell(d_epi.mean());
    table.cell(t_on.mean(), 1);
    table.cell(t_tps.mean(), 1);
    table.cell(t_alar.mean(), 1);
    table.cell(t_epi.mean(), 1);
  }
  table.print(std::cout);
  bench::finish(base, args, timer);
  return 0;
}
