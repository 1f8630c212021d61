// Ablation: what wire-accurate cells cost, and what an on-path adversary
// actually sees.
//
// The abstract protocols count transmissions; the wire layer prices each
// of them in fixed-size AEAD cells. This bench sweeps the cell size and
// reports, for both onion protocols, the measured wire bytes per delivered
// message and the peel cost (layer opens per message), plus a
// compromised-relay adversary run on the actual ciphertext cell streams
// via circuit::CellTap: the fraction of all cells that crossed a contact
// an adversary endpoint observed, and the fraction of messages whose
// source was exposed at cell granularity (a compromised node received
// cells directly from the source). Cells are constant-size, so these are
// the only signals the public network leaks — packet shapes carry nothing.
#include <iostream>

#include "adversary/adversary.hpp"
#include "common/bench_common.hpp"
#include "metrics/metrics.hpp"
#include "routing/onion_routing.hpp"
#include "util/stats.hpp"

namespace {

using namespace odtn;

struct WirePoint {
  util::RunningStats cells_per_msg;
  util::RunningStats bytes_per_msg;
  std::uint64_t peels = 0;
  std::uint64_t observed_cells = 0;
  std::uint64_t total_cells = 0;
  std::size_t src_exposed = 0;
  std::size_t delivered = 0;
};

}  // namespace

int main(int argc, char** argv) {
  util::Args args(argc, argv);
  bench::WallTimer timer;
  auto base = bench::direct_config(args);
  bench::print_header(
      "Ablation", "Wire-accurate cell overhead and cell-stream adversary",
      "n=100 Table II graph, K=3, g=5, 10% compromised; x = cell size; "
      "single-copy L=1, multi-copy L=4 spray-and-wait",
      base);

  util::Table table({"cell_size", "s_cells", "s_bytes", "s_peels", "m_cells",
                     "m_bytes", "m_peels", "cells_seen", "src_exposed"});
  for (std::size_t cell_size : {std::size_t{128}, std::size_t{256},
                                std::size_t{512}, std::size_t{1024},
                                std::size_t{4096}}) {
    // odtn-lint: allow(rng) — bench-local stream: seeded directly from --seed
    // so published figure/ablation tables stay pinned to their historical
    // sequences
    util::Rng rng(base.seed);
    WirePoint single, multi;
    metrics::Registry s_reg, m_reg;
    for (std::size_t run = 0; run < base.runs; ++run) {
      auto graph = graph::random_contact_graph(base.nodes, rng, base.min_ict,
                                               base.max_ict);
      groups::GroupDirectory dir(base.nodes, base.group_size, &rng);
      groups::KeyManager keys(dir, rng.next());
      onion::OnionCodec codec;
      auto adversary = adversary::CompromiseModel::from_fraction(
          base.nodes, 0.1, rng);

      NodeId src = static_cast<NodeId>(rng.below(base.nodes));
      NodeId dst = static_cast<NodeId>(rng.below(base.nodes - 1));
      if (dst >= src) ++dst;
      routing::MessageSpec spec;
      spec.src = src;
      spec.dst = dst;
      spec.ttl = 1e7;
      spec.num_relays = base.num_relays;

      auto measure = [&](WirePoint& point, metrics::Registry* reg,
                         std::size_t copies) {
        // The tap sees every sealed cell a contact carries; the adversary's
        // observation is exactly the cells one of its nodes sent or
        // received, plus source exposure when it is the direct receiver.
        bool exposed = false;
        routing::OnionContext ctx{&dir, &keys, &codec,
                                  routing::CryptoMode::kReal};
        ctx.metrics = reg;
        ctx.wire_cells = true;
        ctx.cell_size = cell_size;
        ctx.cell_tap = [&](const circuit::CellEvent& e) {
          ++point.total_cells;
          if (adversary.is_compromised(e.sender) ||
              adversary.is_compromised(e.receiver)) {
            ++point.observed_cells;
          }
          if (e.sender == src && adversary.is_compromised(e.receiver)) {
            exposed = true;
          }
        };
        spec.copies = copies;
        sim::PoissonContactModel contacts(graph, rng);
        routing::DeliveryResult r;
        if (copies == 1) {
          routing::SingleCopyOnionRouting protocol(ctx);
          r = protocol.route(contacts, spec, rng);
        } else {
          routing::MultiCopyOnionRouting protocol(ctx);
          r = protocol.route(contacts, spec, rng);
        }
        if (exposed) ++point.src_exposed;
        if (!r.delivered) return;
        ++point.delivered;
        point.cells_per_msg.add(static_cast<double>(r.wire_cells));
        point.bytes_per_msg.add(static_cast<double>(r.wire_bytes));
      };
      measure(single, &s_reg, 1);
      measure(multi, &m_reg, 4);
    }
    single.peels = s_reg.entries().at("routing.peels").counter;
    multi.peels = m_reg.entries().at("routing.peels").counter;

    const std::uint64_t seen =
        single.observed_cells + multi.observed_cells;
    const std::uint64_t total = single.total_cells + multi.total_cells;
    table.new_row();
    table.cell(static_cast<double>(cell_size), 0);
    table.cell(single.cells_per_msg.mean());
    table.cell(single.bytes_per_msg.mean());
    table.cell(static_cast<double>(single.peels) /
               static_cast<double>(base.runs));
    table.cell(multi.cells_per_msg.mean());
    table.cell(multi.bytes_per_msg.mean());
    table.cell(static_cast<double>(multi.peels) /
               static_cast<double>(base.runs));
    table.cell(total == 0 ? 0.0
                          : static_cast<double>(seen) /
                                static_cast<double>(total));
    table.cell(static_cast<double>(single.src_exposed + multi.src_exposed) /
               static_cast<double>(2 * base.runs));
  }
  table.print(std::cout);
  std::cout
      << "# Peel cost (layer opens/message) is cell-size invariant — the "
         "protocol does the\n# same K+1 opens however the packet is "
         "fragmented — while bytes/message fall as\n# cells grow until one "
         "cell holds the whole packet, then padding dominates.\n# The "
         "cell-stream adversary sees ~what uniform 10% compromise predicts: "
         "constant\n# cell size leaves only cell counts to observe, so "
         "byte-level observation adds no\n# power over the abstract "
         "transmission-counting adversary — the property the\n# wire layer "
         "exists to demonstrate.\n";
  bench::finish(base, args, timer);
  return 0;
}
