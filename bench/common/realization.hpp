// The one realization path of the benches that draw their own runs: the
// ten direct rows of bench/ablations.cpp, ablation_mobility's trace,
// fig_scale and the micro benchmarks.
//
// Such a bench draws its Monte-Carlo runs itself instead of through
// run_experiment: per run, a contact graph (random, sparse(p) or
// community), optionally a Poisson trace sampled from it, the live contact
// model, the onion groups and their keys, and a (src, dst) pair, all from
// one util::Rng seeded from --seed (a micro benchmark: from a fixed seed).
// bench::Stream owns that stream and offers each draw as one step. A bench
// calls the steps in its own order: the order is what pins its published
// table, so no step takes a switch.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "graph/contact_graph.hpp"
#include "routing/onion_routing.hpp"  // groups, keys, codec, contact models
#include "trace/synthetic.hpp"
#include "traffic/traffic.hpp"

namespace odtn::bench {

/// A run's onion groups: the directory (a random permutation of c.nodes
/// into groups of c.group_size), then the keys from one draw, and the
/// codec.
struct World {
  World(const core::ExperimentConfig& c, util::Rng& rng)
      : dir(c.nodes, c.group_size, &rng), keys(dir, rng.next()) {}

  /// The abstract-crypto context (CryptoMode::kNone) the protocols route
  /// with, pointing into this world; a wire bench switches its crypto and
  /// cell fields on a copy.
  routing::OnionContext context() const {
    return {&dir, &keys, &codec, routing::CryptoMode::kNone};
  }

  groups::GroupDirectory dir;
  groups::KeyManager keys;
  onion::OnionCodec codec;
};

/// The stream a bench draws its realizations from, and the draws.
/// Sizes and ranges come from the bench's config `c`. Not copyable: the
/// contact models sample from the stream for as long as they live.
class Stream {
  using Config = core::ExperimentConfig;

 public:
  explicit Stream(std::uint64_t seed) : rng_(seed) {}
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  util::Rng& rng() { return rng_; }

  /// Table II: every pair meets, ICT uniform in [c.min_ict, c.max_ict].
  graph::ContactGraph random_graph(const Config& c) {
    return graph::random_contact_graph(c.nodes, rng_, c.min_ict, c.max_ict);
  }
  /// Table II with each pair present with probability `p`.
  graph::ContactGraph sparse_graph(const Config& c, double p) {
    return graph::sparse_contact_graph(c.nodes, p, rng_, c.min_ict,
                                       c.max_ict);
  }
  /// `communities` equal blocks; pairs across blocks `slowdown` x slower.
  graph::ContactGraph community_graph(const Config& c, std::size_t communities,
                                      double slowdown) {
    return graph::community_contact_graph(c.nodes, communities, slowdown,
                                          rng_, c.min_ict, c.max_ict);
  }

  /// A trace of `graph`'s Poisson contacts over [0, horizon).
  trace::ContactTrace poisson_trace(const graph::ContactGraph& graph,
                                    Time horizon) {
    return trace::sample_poisson_trace(graph, horizon, rng_);
  }
  /// Live Poisson contacts on `graph`, drawn as routing queries them.
  sim::PoissonContactModel contacts(const graph::ContactGraph& graph) {
    return {graph, rng_};
  }

  /// The group directory alone, for a bench that needs no keys.
  groups::GroupDirectory directory(const Config& c) {
    return {c.nodes, c.group_size, &rng_};
  }
  World world(const Config& c) { return World(c, rng_); }

  /// One message: src, then dst != src, uniform over c.nodes; it carries
  /// c's deadline, relay count K and copy count L.
  routing::MessageSpec message(const Config& c) {
    routing::MessageSpec spec;
    spec.src = static_cast<NodeId>(rng_.below(c.nodes));
    spec.dst = static_cast<NodeId>(rng_.below(c.nodes - 1));
    if (spec.dst >= spec.src) ++spec.dst;
    spec.ttl = c.ttl;
    spec.num_relays = c.num_relays;
    spec.copies = c.copies;
    return spec;
  }
  /// The messages of one Poisson flow over c.nodes: `rate` arrivals per
  /// time unit on [0, horizon), each with deadline `ttl` and c's K. The
  /// plan is seeded by one draw.
  std::vector<routing::MessageSpec> poisson_messages(const Config& c,
                                                     double rate, Time ttl,
                                                     Time horizon) {
    traffic::TrafficConfig workload;
    workload.flows.push_back(
        {.rate = rate, .num_relays = c.num_relays, .ttl = ttl});
    workload.horizon = horizon;
    return traffic::TrafficPlan(workload, c.nodes, rng_.next()).specs();
  }

 private:
  // odtn-lint: allow(rng) — the benches' one stream, seeded from --seed
  // (or a micro benchmark's fixed seed) itself rather than through
  // util::derive_seed: their published tables and recorded timings are
  // pinned to these historical sequences.
  util::Rng rng_;
};

}  // namespace odtn::bench
