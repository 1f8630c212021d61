// Backend-neutral read surface over pairwise contact rates.
//
// The analysis layer (Eq. 4 rate aggregation, targeted adversaries, rate
// summaries) historically consumed the dense `graph::ContactGraph`
// directly, which hard-wired O(n²) storage into every caller. ContactRates
// is the abstraction that breaks that coupling: the dense triangular
// ContactGraph and the CSR SparseContactGraph both implement it, so every
// rate consumer runs unchanged on either backend.
//
// Determinism contract: all set-aggregation helpers accumulate in the
// caller-visible enumeration order (span order for rate_to_set /
// mean_set_to_set_rate, ascending node id for row_rate_sum, ascending
// (i, j) with i < j for total_rate). Both backends follow the same order,
// so a sparse graph holding the same rates as a dense one produces
// bit-identical sums — the property the cross-backend equivalence suite
// locks in.
#pragma once

#include <span>
#include <vector>

#include "util/ids.hpp"

namespace odtn::graph {

class ContactRates {
 public:
  virtual ~ContactRates() = default;

  virtual std::size_t node_count() const = 0;

  /// Symmetric contact rate lambda_ij; rate(i, i) is always 0.
  virtual double rate(NodeId i, NodeId j) const = 0;

  /// Sum of rates from `i` into the node set `targets` (skipping i itself),
  /// accumulated in span order: the anycast rate of the opportunistic onion
  /// path model (Eq. 4, first/last cases).
  virtual double rate_to_set(NodeId i,
                             std::span<const NodeId> targets) const = 0;

  /// Average over senders in `from` of the summed rate into `to`
  /// (Eq. 4, middle case): (1/|from|) * sum_{i in from} sum_{j in to} rate.
  double mean_set_to_set_rate(std::span<const NodeId> from,
                              std::span<const NodeId> to) const;

  /// Total rate of node `i` against every other node, accumulated in
  /// ascending peer id (used by the targeted-adversary model to rank nodes
  /// by contact activity).
  virtual double row_rate_sum(NodeId i) const = 0;

  /// Total pairwise rate over the whole graph, accumulated in ascending
  /// (i, j), i < j — the dense triangular storage order.
  virtual double total_rate() const = 0;

  /// Appends the peers of `i` with non-zero rate to `out`, in ascending id
  /// order. O(degree) on sparse backends, O(n) on dense ones.
  virtual void append_neighbors(NodeId i,
                                std::vector<NodeId>& out) const = 0;
};

}  // namespace odtn::graph
