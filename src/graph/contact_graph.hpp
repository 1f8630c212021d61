// Contact-graph representation of a DTN (Sec. III-A of the paper).
//
// A DTN is a graph over n nodes where edge (i, j) carries the contact rate
// lambda_ij: contacts between i and j form a Poisson process with that
// rate, i.e. inter-contact times are exponential with mean 1/lambda_ij.
// A zero rate means the pair never meets.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "graph/contact_rates.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace odtn::graph {

class ContactGraph final : public ContactRates {
 public:
  /// Creates a graph of `n` isolated nodes (all rates zero).
  explicit ContactGraph(std::size_t n);

  /// Bounds-checked once at construction (via ContactGraph::row), then
  /// reads the fixed node's symmetric rates without re-deriving the
  /// triangular index base per lookup — the row above the diagonal is a
  /// single contiguous slice of the rate array. Invalidated by destroying
  /// the graph (set_rate keeps it valid: storage never moves).
  class RowView {
   public:
    /// Symmetric rate(i, j) for the fixed row node i; 0 for j == i.
    double rate(NodeId j) const {
      if (j >= n_) throw std::out_of_range("ContactGraph: bad node pair");
      if (j > i_) return rates_[row_start_ + (j - i_ - 1)];
      if (j == i_) return 0.0;
      return rates_[static_cast<std::size_t>(j) * (2 * n_ - j - 1) / 2 +
                    (i_ - j - 1)];
    }

   private:
    friend class ContactGraph;
    RowView(const double* rates, std::size_t n, NodeId i)
        : rates_(rates),
          n_(n),
          i_(i),
          row_start_(static_cast<std::size_t>(i) * (2 * n - i - 1) / 2) {}

    const double* rates_;
    std::size_t n_;
    NodeId i_;
    std::size_t row_start_;
  };

  std::size_t node_count() const override { return n_; }

  /// Contact rate between i and j (symmetric). rate(i, i) is always 0.
  double rate(NodeId i, NodeId j) const override;

  /// Rate accessor with the row bounds check and triangular index base
  /// hoisted out of the inner loop; `i` must be a valid node.
  RowView row(NodeId i) const;

  /// Sets the symmetric contact rate; `r` must be >= 0 and i != j.
  void set_rate(NodeId i, NodeId j, double r);

  /// Equivalent: sets rate from a mean inter-contact time (> 0).
  void set_inter_contact_time(NodeId i, NodeId j, double ict);

  /// Sum of rates from `i` into the node set `targets` (skipping i itself):
  /// the aggregate rate at which i meets *any* member — the anycast rate of
  /// the opportunistic onion path model (Eq. 4, first/last cases).
  double rate_to_set(NodeId i,
                     std::span<const NodeId> targets) const override;

  /// Total rate of `i` against all peers, via the contiguous RowView.
  double row_rate_sum(NodeId i) const override;

  /// Total pairwise rate over the whole graph (used by the event-driven
  /// baselines to sample "next contact anywhere").
  double total_rate() const override;

  /// All neighbors of i with non-zero rate.
  std::vector<NodeId> neighbors(NodeId i) const;

  void append_neighbors(NodeId i, std::vector<NodeId>& out) const override;

 private:
  // The generators write rates_ directly, in its row-major order.
  friend ContactGraph random_contact_graph(std::size_t, util::Rng&, double,
                                           double);
  friend ContactGraph sparse_contact_graph(std::size_t, double, util::Rng&,
                                           double, double);
  friend ContactGraph community_contact_graph(std::size_t, std::size_t,
                                              double, util::Rng&, double,
                                              double);

  std::size_t index(NodeId i, NodeId j) const;

  std::size_t n_;
  // Upper-triangular dense storage: rates_[index(i,j)] for i < j.
  std::vector<double> rates_;
};

/// Throws std::invalid_argument("<who>: bad ICT range") unless
/// 0 < min_ict <= max_ict < inf: the range every generator draws uniform
/// inter-contact times from (an infinite bound would draw rate-0 pairs).
void check_ict_range(const char* who, double min_ict, double max_ict);

/// Random contact graph of Table II: every pair gets an inter-contact time
/// drawn uniformly from [min_ict, max_ict] (paper: 10..360 minutes).
ContactGraph random_contact_graph(std::size_t n, util::Rng& rng,
                                  double min_ict = 10.0,
                                  double max_ict = 360.0);

/// Sparse variant: each pair is connected with probability `p` (and then
/// gets a uniform inter-contact time). Used for ablations: the paper's model
/// assumes a dense contact graph, and this generator shows where the
/// approximation degrades.
ContactGraph sparse_contact_graph(std::size_t n, double p, util::Rng& rng,
                                  double min_ict = 10.0,
                                  double max_ict = 360.0);

/// Community-structured graph: nodes are split into `communities` equal
/// blocks; intra-community pairs use [min_ict, max_ict], inter-community
/// pairs are `slowdown` times slower. Models the social structure of
/// human-contact DTNs for the example applications.
ContactGraph community_contact_graph(std::size_t n, std::size_t communities,
                                     double slowdown, util::Rng& rng,
                                     double min_ict = 10.0,
                                     double max_ict = 360.0);

}  // namespace odtn::graph
