// Network load study: what the single-message analysis cannot see.
//
// Uses the whole-network discrete-event simulator (sim/network_sim.hpp) to
// run hundreds of concurrent anonymous messages over one contact process,
// with finite per-node buffers — the deployment regime where relays start
// refusing onions. Also demonstrates graph and trace serialization: the
// exact realization is written to /tmp so a run can be reproduced or
// inspected offline.
#include <filesystem>
#include <iostream>

#include "graph/graph_io.hpp"
#include "sim/network_sim.hpp"
#include "trace/synthetic.hpp"
#include "util/table.hpp"

int main() {
  using namespace odtn;

  const std::size_t n = 100;
  util::Rng rng(2024);
  auto graph = graph::random_contact_graph(n, rng, 10.0, 360.0);
  auto trace = trace::sample_poisson_trace(graph, 3600.0, rng);
  groups::GroupDirectory dir(n, 5, &rng);

  // Persist the realization for reproducibility.
  auto dir_path = std::filesystem::temp_directory_path();
  std::string graph_path = (dir_path / "odtn_load_graph.txt").string();
  std::string trace_path = (dir_path / "odtn_load_trace.txt").string();
  graph::save_graph_file(graph, graph_path);
  trace::save_trace_file(trace, trace_path);

  std::cout << "Network: " << n << " nodes, " << trace.event_count()
            << " contacts over 3600 min.\n"
            << "Realization saved to " << graph_path << " and " << trace_path
            << "\n\n";

  // A workload of anonymous messages injected over the first 10 hours.
  const std::size_t load = 300;
  std::vector<sim::InjectedMessage> messages;
  util::Rng wl(7);
  for (std::size_t i = 0; i < load; ++i) {
    sim::InjectedMessage m;
    m.src = static_cast<NodeId>(wl.below(n));
    m.dst = static_cast<NodeId>(wl.below(n - 1));
    if (m.dst >= m.src) ++m.dst;
    m.start = wl.uniform(0.0, 600.0);
    m.ttl = 1800.0;
    m.num_relays = 3;
    messages.push_back(m);
  }

  util::Table table({"buffer_capacity", "delivery", "mean_delay_min",
                     "transmissions", "rejections", "expired"});
  for (std::size_t cap : {0u, 8u, 4u, 2u, 1u}) {
    sim::NetworkSimConfig cfg;
    cfg.buffer_capacity = cap;
    util::Rng run_rng(99);  // identical relay-group draws per capacity
    auto report = sim::run_network_sim(trace, dir, messages, {}, cfg, run_rng);
    table.new_row();
    table.cell(cap == 0 ? std::string("unlimited") : std::to_string(cap));
    table.cell(report.delivery_rate(), 3);
    table.cell(report.mean_delay(), 1);
    table.cell(static_cast<std::int64_t>(report.total_transmissions));
    table.cell(static_cast<std::int64_t>(report.total_buffer_rejections));
    table.cell(static_cast<std::int64_t>(report.expired_copies));
  }
  table.print(std::cout);

  std::cout << "\nWith unlimited buffers the network matches the paper's "
               "per-message model;\nas capacity shrinks, relays refuse "
               "onions and delivery degrades — a deployment\nconstraint the "
               "closed-form analysis (which assumes one message at a time) "
               "cannot express.\n";
  return 0;
}
