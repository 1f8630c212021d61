#include "graph/contact_graph.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace odtn::graph {

ContactGraph::ContactGraph(std::size_t n) : n_(n) {
  if (n < 2) throw std::invalid_argument("ContactGraph: need >= 2 nodes");
  rates_.assign(n * (n - 1) / 2, 0.0);
}

std::size_t ContactGraph::index(NodeId i, NodeId j) const {
  if (i >= n_ || j >= n_ || i == j) {
    throw std::out_of_range("ContactGraph: bad node pair");
  }
  if (i > j) std::swap(i, j);
  // Row-major upper triangle: pair (i, j), i < j.
  std::size_t row_start = static_cast<std::size_t>(i) * (2 * n_ - i - 1) / 2;
  return row_start + (j - i - 1);
}

double ContactGraph::rate(NodeId i, NodeId j) const {
  if (i == j) return 0.0;
  return rates_[index(i, j)];
}

ContactGraph::RowView ContactGraph::row(NodeId i) const {
  if (i >= n_) throw std::out_of_range("ContactGraph: bad node pair");
  return RowView(rates_.data(), n_, i);
}

void ContactGraph::set_rate(NodeId i, NodeId j, double r) {
  if (r < 0.0) throw std::invalid_argument("ContactGraph: negative rate");
  rates_[index(i, j)] = r;
}

void ContactGraph::set_inter_contact_time(NodeId i, NodeId j, double ict) {
  if (!(ict > 0.0)) {
    throw std::invalid_argument("ContactGraph: inter-contact time must be > 0");
  }
  set_rate(i, j, 1.0 / ict);
}

double ContactGraph::rate_to_set(NodeId i, std::span<const NodeId> targets) const {
  const RowView r = row(i);
  double sum = 0.0;
  for (NodeId t : targets) {
    if (t != i) sum += r.rate(t);
  }
  return sum;
}

double ContactGraph::row_rate_sum(NodeId i) const {
  const RowView r = row(i);
  const std::size_t n = n_;
  double sum = 0.0;
  for (NodeId j = 0; j < n; ++j) sum += r.rate(j);
  return sum;
}

double ContactGraph::total_rate() const {
  double sum = 0.0;
  for (double r : rates_) sum += r;
  return sum;
}

std::vector<NodeId> ContactGraph::neighbors(NodeId i) const {
  std::vector<NodeId> out;
  append_neighbors(i, out);
  return out;
}

void ContactGraph::append_neighbors(NodeId i, std::vector<NodeId>& out) const {
  const RowView r = row(i);
  for (NodeId j = 0; j < n_; ++j) {
    if (j != i && r.rate(j) > 0.0) out.push_back(j);
  }
}

// A valid range makes every drawn ict finite and > 0, so the generators
// need none of set_inter_contact_time's per-pair checks.
void check_ict_range(const char* who, double min_ict, double max_ict) {
  if (!(min_ict > 0.0 && max_ict >= min_ict && std::isfinite(max_ict))) {
    throw std::invalid_argument(std::string(who) + ": bad ICT range");
  }
}

// The generators visit pairs (i, j), i < j, in rates_'s row-major order.

ContactGraph random_contact_graph(std::size_t n, util::Rng& rng,
                                  double min_ict, double max_ict) {
  check_ict_range("random_contact_graph", min_ict, max_ict);
  ContactGraph g(n);
  for (double& r : g.rates_) r = 1.0 / rng.uniform(min_ict, max_ict);
  return g;
}

ContactGraph sparse_contact_graph(std::size_t n, double p, util::Rng& rng,
                                  double min_ict, double max_ict) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("sparse_contact_graph: p out of [0,1]");
  }
  check_ict_range("sparse_contact_graph", min_ict, max_ict);
  ContactGraph g(n);
  for (double& r : g.rates_) {
    if (rng.chance(p)) r = 1.0 / rng.uniform(min_ict, max_ict);
  }
  return g;
}

ContactGraph community_contact_graph(std::size_t n, std::size_t communities,
                                     double slowdown, util::Rng& rng,
                                     double min_ict, double max_ict) {
  if (communities == 0 || communities > n) {
    throw std::invalid_argument("community_contact_graph: bad community count");
  }
  if (!(slowdown >= 1.0)) {
    throw std::invalid_argument("community_contact_graph: slowdown must be >= 1");
  }
  check_ict_range("community_contact_graph", min_ict, max_ict);
  ContactGraph g(n);
  const std::size_t block = (n + communities - 1) / communities;
  std::size_t k = 0;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      double ict = rng.uniform(min_ict, max_ict);
      if (i / block != j / block) ict *= slowdown;
      g.rates_[k++] = 1.0 / ict;
    }
  }
  return g;
}

}  // namespace odtn::graph
