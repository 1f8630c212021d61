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
// --avg-degree=12 --communities=16 --group-shards=64
// --max-bytes-per-node=B (exit 1 if any point exceeds B — the CI memory
// bound).
#include <charconv>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/bench_common.hpp"
#include "graph/sparse_contact_graph.hpp"
#include "metrics/writer.hpp"

namespace {

std::vector<std::size_t> parse_n_list(const std::string& spec) {
  std::vector<std::size_t> ns;
  std::istringstream in(spec);
  std::string tok;
  while (std::getline(in, tok, ',')) {
    if (tok.empty()) continue;
    std::size_t n = 0;
    const char* end = tok.data() + tok.size();
    if (std::from_chars(tok.data(), end, n).ptr != end) {
      throw std::invalid_argument(
          "fig_scale: --n-list entries must be integers");
    }
    ns.push_back(n);
  }
  if (ns.empty()) {
    throw std::invalid_argument("fig_scale: --n-list must name at least one n");
  }
  return ns;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace odtn;
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::base_config(
      args, {"g", "K", "L", "T", "n-list", "max-bytes-per-node"});
  if (!args.has("runs")) base.runs = 8;  // big-n points; keep the sweep fast
  base.backend = core::ContactBackend::kSparse;
  if (base.avg_degree == 0) {
    base.avg_degree = static_cast<std::size_t>(args.get_int("avg-degree", 12));
  }
  if (base.communities == 0) {
    base.communities = static_cast<std::size_t>(args.get_int("communities", 16));
  }
  if (base.group_shards == 0) {
    base.group_shards =
        static_cast<std::size_t>(args.get_int("group-shards", 64));
  }
  base.group_size = static_cast<std::size_t>(
      args.get_int("g", static_cast<std::int64_t>(base.group_size)));
  base.num_relays = static_cast<std::size_t>(
      args.get_int("K", static_cast<std::int64_t>(base.num_relays)));
  base.copies = static_cast<std::size_t>(
      args.get_int("L", static_cast<std::int64_t>(base.copies)));
  base.ttl = args.get_double("T", base.ttl);
  auto ns = parse_n_list(args.get("n-list", "1000,10000,100000"));
  double max_bytes_per_node = args.get_double("max-bytes-per-node", 0.0);

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
