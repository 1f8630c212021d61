// Sparse CSR contact-rate storage: the million-node backend.
//
// The dense ContactGraph stores all n(n-1)/2 pair rates, which caps
// experiments near the paper's n ≈ 100: at n = 10⁶ the triangle alone is
// ~4 TB. Real contact processes are sparse — Conan et al. (PAPERS.md)
// measure heterogeneous per-pair rates over a contact *graph*, not a
// clique — so this backend stores only the pairs that ever meet, in
// compressed-sparse-row form: a row-offset array plus parallel
// (neighbor id, rate) arrays, both directions materialized so every row
// read is one contiguous slice. Memory is O(n + m) for m undirected edges
// (~24 bytes per directed entry), i.e. bytes/node proportional to average
// degree instead of to n.
//
// Determinism: row neighbor ids are strictly ascending, and every
// aggregation helper accumulates in the ContactRates contract order, so a
// SparseContactGraph holding the same rates as a dense ContactGraph is
// bit-identical to it under every analysis and simulation query (the
// cross-backend equivalence suite asserts this).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/contact_graph.hpp"
#include "graph/contact_rates.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace odtn::graph {

class SparseContactGraph final : public ContactRates {
 public:
  /// Incremental edge collector. add() order is free; build() sorts into
  /// CSR. Duplicate (i, j) pairs keep the first-added rate.
  class Builder {
   public:
    explicit Builder(std::size_t n);

    /// Records the symmetric rate lambda_ij; r must be >= 0, i != j, both
    /// ids < n. Zero rates are dropped (a pair that never meets is simply
    /// absent, as in the dense representation's default).
    void add_edge(NodeId i, NodeId j, double r);

    /// Equivalent: from a mean inter-contact time (> 0).
    void add_inter_contact_time(NodeId i, NodeId j, double ict);

    std::size_t edge_count() const { return src_.size(); }

    /// Consumes the collected edges and freezes the CSR arrays.
    SparseContactGraph build() &&;

   private:
    std::size_t n_;
    // One entry per *undirected* edge as added (i, j may be in any order).
    std::vector<NodeId> src_;
    std::vector<NodeId> dst_;
    std::vector<double> rate_;
  };

  /// An empty (edgeless) sparse graph over n nodes.
  explicit SparseContactGraph(std::size_t n);

  std::size_t node_count() const override { return n_; }
  /// Number of undirected edges with positive rate.
  std::size_t edge_count() const { return adj_id_.size() / 2; }
  std::size_t degree(NodeId i) const;

  /// O(log degree) binary search in i's row.
  double rate(NodeId i, NodeId j) const override;

  double rate_to_set(NodeId i,
                     std::span<const NodeId> targets) const override;
  double row_rate_sum(NodeId i) const override;
  double total_rate() const override;
  void append_neighbors(NodeId i, std::vector<NodeId>& out) const override;

  /// Row views: i's neighbors (ascending) and the parallel rates.
  std::span<const NodeId> neighbor_ids(NodeId i) const;
  std::span<const double> neighbor_rates(NodeId i) const;

  /// Bytes held by the CSR arrays (the bytes/node accounting the fig_scale
  /// bench records): row offsets + neighbor ids + rates, at capacity.
  std::size_t memory_bytes() const;

 private:
  friend class Builder;

  std::size_t n_ = 0;
  std::vector<std::uint64_t> row_start_;  // n + 1 offsets into adj arrays
  std::vector<NodeId> adj_id_;            // both directions, ascending per row
  std::vector<double> adj_rate_;
};

/// Exact sparse copy of a dense graph (every positive-rate pair).
SparseContactGraph sparse_from_dense(const ContactGraph& dense);

/// Exact dense copy of a sparse graph: its inverse.
ContactGraph dense_from_sparse(const SparseContactGraph& sparse);

/// The Table II random graph in sparse form: sparse_from_dense of
/// random_contact_graph, so it draws the *identical* uniform-ICT sequence
/// and holds the identical rates, and at paper scale the sparse backend
/// reproduces dense experiments bit-for-bit. O(n²) time and a transient
/// dense copy — intended for equivalence testing and paper-scale runs, not
/// the scale regime.
SparseContactGraph sparse_random_contact_graph(std::size_t n, util::Rng& rng,
                                               double min_ict = 10.0,
                                               double max_ict = 360.0);

/// The scale-regime generator: each node proposes avg_degree/2 partners,
/// drawn inside its community block with probability `intra_fraction` and
/// uniformly otherwise; inter-community pairs get `slowdown`× longer ICTs
/// (the community_contact_graph structure, grown sparsely). O(n ·
/// avg_degree) time and memory — this is what opens n = 10⁵–10⁶.
/// Duplicate proposals collapse (first wins), so realized mean degree is
/// slightly below avg_degree.
SparseContactGraph sparse_community_contact_graph(
    std::size_t n, std::size_t avg_degree, std::size_t communities,
    util::Rng& rng, double min_ict = 10.0, double max_ict = 360.0,
    double slowdown = 10.0, double intra_fraction = 0.9);

}  // namespace odtn::graph
