// AnonymousDtn: the library's top-level facade.
//
// Bundles a contact model (random graph or trace), onion-group setup, key
// material, and the routing protocols behind a small API:
//
//   auto net = AnonymousDtn::over_random_graph(100, /*group_size=*/5, seed);
//   auto r = net.send(src, dst, payload, {.num_relays = 3, .ttl = 1800});
//   if (r.delivered) ...
//
// Examples in examples/ use exactly this API; the figure benches use the
// lower-level core/experiment.hpp runner for analysis-vs-simulation rows.
#pragma once

#include <memory>

#include "graph/contact_graph.hpp"
#include "groups/group_directory.hpp"
#include "groups/key_manager.hpp"
#include "onion/onion.hpp"
#include "routing/onion_routing.hpp"
#include "routing/types.hpp"
#include "sim/contact_model.hpp"
#include "trace/contact_trace.hpp"
#include "util/rng.hpp"

namespace odtn::core {

/// Per-message options for AnonymousDtn::send. The shared message
/// parameters (num_relays K, copies L, ttl T, start, ...) come from
/// routing::MessageSpec; src, dst and payload are arguments of send()
/// itself and overwrite whatever the spec base holds.
struct SendOptions : routing::MessageSpec {
  routing::SprayMode spray = routing::SprayMode::kSprayAndWait;
};

class AnonymousDtn {
 public:
  /// A network over a random contact graph (Table II parameters).
  static AnonymousDtn over_random_graph(std::size_t nodes,
                                        std::size_t group_size,
                                        std::uint64_t seed,
                                        double min_ict = 10.0,
                                        double max_ict = 360.0);

  /// A network over an explicit contact graph.
  static AnonymousDtn over_graph(graph::ContactGraph graph,
                                 std::size_t group_size, std::uint64_t seed);

  /// A network replaying a contact trace.
  static AnonymousDtn over_trace(trace::ContactTrace trace,
                                 std::size_t group_size, std::uint64_t seed);

  /// Sends `payload` anonymously from src to dst with real onion crypto.
  routing::DeliveryResult send(NodeId src, NodeId dst,
                               const util::Bytes& payload,
                               const SendOptions& options = {});

  /// Non-anonymous baselines over the same network, for comparison.
  routing::DeliveryResult send_spray_and_wait(NodeId src, NodeId dst,
                                              std::size_t copies, Time ttl,
                                              Time start = 0.0);
  routing::DeliveryResult send_epidemic(NodeId src, NodeId dst, Time ttl,
                                        Time start = 0.0);

  std::size_t node_count() const;
  const groups::GroupDirectory& directory() const { return *directory_; }
  const groups::KeyManager& keys() const { return *keys_; }
  const graph::ContactGraph& contact_rates() const { return *rates_; }

 private:
  AnonymousDtn(std::unique_ptr<graph::ContactGraph> graph,
               std::unique_ptr<trace::ContactTrace> trace,
               std::size_t group_size, std::uint64_t seed);

  // Exactly one of graph_/trace_ is the contact source; rates_ points to
  // graph_ or holds trace-estimated rates (for analysis helpers).
  std::unique_ptr<graph::ContactGraph> graph_;
  std::unique_ptr<trace::ContactTrace> trace_;
  std::unique_ptr<graph::ContactGraph> estimated_rates_;
  const graph::ContactGraph* rates_ = nullptr;

  // odtn-lint: allow(rng) — declaration only: seeded in the constructor init
  // list from the facade's top-level seed
  util::Rng rng_;
  std::unique_ptr<sim::ContactModel> contacts_;
  std::unique_ptr<groups::GroupDirectory> directory_;
  std::unique_ptr<groups::KeyManager> keys_;
  std::unique_ptr<onion::OnionCodec> codec_;
};

}  // namespace odtn::core
