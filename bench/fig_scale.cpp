// Scale-out sweep: throughput and memory of the sparse contact backend.
//
// Not a paper figure — the paper stops at n = 100 (Table II). This bench
// demonstrates the scale regime the sparse backend unlocks: community
// contact graphs at n = 10^3..10^5 (pass --n-list to push to 10^6),
// reporting per-point
//   * edges           undirected contact-pair count of a representative
//                     graph realization
//   * bytes_per_node  CSR bytes / n for that realization (O(degree), not
//                     O(n) — the number that makes million-node graphs fit)
//   * build_s         seconds to generate + build that realization
//   * wall_s          experiment wall time (cfg.runs protocol runs)
//   * knodes_per_s    n * runs / wall_s / 1000 — node-realizations
//                     simulated per second
//   * delivery        simulated delivery rate. Near zero at the defaults:
//                     single-copy onion routing stalls when a holder shares
//                     no contact edge with the next relay group, which is
//                     the norm on sparse community graphs (see
//                     ablation_sparse_graph). Pass --L=8 --K=1 for a
//                     delivery-oriented sweep.
//
// Flags (besides the common ones): --n-list=1000,10000,100000
// --avg-degree=12 --communities=16 --group-shards=64 --g --K --L --T
// --max-bytes-per-node=B (exit 1 if any point exceeds B — the CI memory
// bound).
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "graph/sparse_contact_graph.hpp"
#include "metrics/writer.hpp"

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto defaults = core::entry_defaults();
  defaults.runs = 8;  // big-n points; keep the sweep fast
  defaults.backend = core::ContactBackend::kSparse;
  defaults.avg_degree = 12;
  defaults.communities = 16;
  defaults.group_shards = 64;
  auto base = bench::base_config(
      args, {"g", "K", "L", "T", "n-list", "max-bytes-per-node"}, defaults);
  auto ns = args.get_unsigned_list("n-list", "1000,10000,100000");
  double max_bytes_per_node = args.get_double("max-bytes-per-node", 0.0);
  // Every point's configuration is checked before the first one runs.
  for (std::size_t n : ns) {
    auto cfg = base;
    cfg.nodes = n;
    core::Experiment(cfg).validate(core::RandomGraphScenario{});
  }

  std::ostringstream fixed;
  fixed << "sparse backend, avg_degree=" << base.avg_degree
        << ", communities=" << base.communities
        << ", group_shards=" << base.group_shards << "; x = n";
  bench::print_header("Scale", "Sparse-backend scale-out sweep", fixed.str(),
                      base);

  util::Table table({"n", "edges", "bytes_per_node", "build_s", "wall_s",
                     "knodes_per_s", "delivery"});
  double last_bytes_per_node = 0.0;
  double last_knodes_per_s = 0.0;
  bool bound_ok = true;
  for (std::size_t n : ns) {
    // One representative realization for the memory column (the experiment
    // draws its own per-run graphs from the same generator and seed stream).
    bench::WallTimer build_timer;
    // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
    // so published figure/ablation tables stay pinned to their historical
    // sequences
    util::Rng grng(base.seed);
    auto g = graph::sparse_community_contact_graph(
        n, base.avg_degree, base.communities, grng, base.min_ict, base.max_ict);
    double build_s = build_timer.seconds();
    double bytes_per_node =
        static_cast<double>(g.memory_bytes()) / static_cast<double>(n);

    auto cfg = base;
    cfg.nodes = n;
    bench::WallTimer point_timer;
    auto r = bench::run_experiment(cfg, core::RandomGraphScenario{});
    double wall = point_timer.seconds();
    double knodes_per_s =
        wall > 0.0 ? static_cast<double>(n) * static_cast<double>(cfg.runs) /
                         wall / 1000.0
                   : 0.0;

    table.new_row();
    table.cell(static_cast<std::int64_t>(n));
    table.cell(static_cast<std::int64_t>(g.edge_count()));
    table.cell(bytes_per_node, 1);
    table.cell(build_s);
    table.cell(wall);
    table.cell(knodes_per_s, 1);
    table.cell(r.sim_delivered.mean());

    last_bytes_per_node = bytes_per_node;
    last_knodes_per_s = knodes_per_s;
    if (max_bytes_per_node > 0.0 && bytes_per_node > max_bytes_per_node) {
      bound_ok = false;
    }
  }
  table.print(std::cout);
  std::cout << "# bytes_per_node is O(avg_degree) — independent of n — so "
               "the contact structure\n# for n = 10^6 nodes fits in a few "
               "hundred MB where the dense graph needs 4 TB.\n";

  std::ostringstream extra;
  extra << "\"max_n\":" << ns.back()
        << ",\"avg_degree\":" << base.avg_degree
        << ",\"bytes_per_node\":" << metrics::format_double(last_bytes_per_node)
        << ",\"knodes_per_s\":" << metrics::format_double(last_knodes_per_s);
  bench::finish(base, args, timer, extra.str());
  if (!bound_ok) {
    std::cerr << "fig_scale: bytes_per_node exceeded --max-bytes-per-node="
              << max_bytes_per_node << "\n";
    return 1;
  }
  return 0;
}
