#include "graph/sparse_contact_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace odtn::graph {

SparseContactGraph::Builder::Builder(std::size_t n) : n_(n) {
  if (n < 2) {
    throw std::invalid_argument("SparseContactGraph: need >= 2 nodes");
  }
}

void SparseContactGraph::Builder::add_edge(NodeId i, NodeId j, double r) {
  if (i >= n_ || j >= n_ || i == j) {
    throw std::out_of_range("SparseContactGraph: bad node pair");
  }
  if (r < 0.0) {
    throw std::invalid_argument("SparseContactGraph: negative rate");
  }
  if (r == 0.0) return;
  src_.push_back(i);
  dst_.push_back(j);
  rate_.push_back(r);
}

void SparseContactGraph::Builder::add_inter_contact_time(NodeId i, NodeId j,
                                                         double ict) {
  if (!(ict > 0.0)) {
    throw std::invalid_argument(
        "SparseContactGraph: inter-contact time must be > 0");
  }
  add_edge(i, j, 1.0 / ict);
}

SparseContactGraph SparseContactGraph::Builder::build() && {
  SparseContactGraph g(n_);
  const std::size_t m = src_.size();

  struct Entry {
    NodeId node;
    NodeId nbr;
    double r;
    std::uint64_t seq;
  };
  std::vector<Entry> dir;
  dir.reserve(2 * m);
  for (std::size_t e = 0; e < m; ++e) {
    dir.push_back({src_[e], dst_[e], rate_[e], e});
    dir.push_back({dst_[e], src_[e], rate_[e], e});
  }
  // seq as the tiebreak makes the later dedup keep the first-added rate for
  // a repeated pair.
  std::sort(dir.begin(), dir.end(), [](const Entry& a, const Entry& b) {
    if (a.node != b.node) return a.node < b.node;
    if (a.nbr != b.nbr) return a.nbr < b.nbr;
    return a.seq < b.seq;
  });

  std::size_t unique = 0;
  for (std::size_t k = 0; k < dir.size(); ++k) {
    if (k == 0 || dir[k].node != dir[k - 1].node ||
        dir[k].nbr != dir[k - 1].nbr) {
      ++unique;
    }
  }

  g.adj_id_.reserve(unique);
  g.adj_rate_.reserve(unique);
  for (std::size_t k = 0; k < dir.size(); ++k) {
    if (k > 0 && dir[k].node == dir[k - 1].node &&
        dir[k].nbr == dir[k - 1].nbr) {
      continue;
    }
    g.adj_id_.push_back(dir[k].nbr);
    g.adj_rate_.push_back(dir[k].r);
    g.row_start_[dir[k].node + 1]++;
  }
  for (std::size_t i = 0; i < n_; ++i) g.row_start_[i + 1] += g.row_start_[i];
  return g;
}

SparseContactGraph::SparseContactGraph(std::size_t n) : n_(n) {
  if (n < 2) {
    throw std::invalid_argument("SparseContactGraph: need >= 2 nodes");
  }
  row_start_.assign(n + 1, 0);
}

std::size_t SparseContactGraph::degree(NodeId i) const {
  if (i >= n_) throw std::out_of_range("SparseContactGraph: bad node pair");
  return static_cast<std::size_t>(row_start_[i + 1] - row_start_[i]);
}

std::span<const NodeId> SparseContactGraph::neighbor_ids(NodeId i) const {
  if (i >= n_) throw std::out_of_range("SparseContactGraph: bad node pair");
  return {adj_id_.data() + row_start_[i],
          static_cast<std::size_t>(row_start_[i + 1] - row_start_[i])};
}

std::span<const double> SparseContactGraph::neighbor_rates(NodeId i) const {
  if (i >= n_) throw std::out_of_range("SparseContactGraph: bad node pair");
  return {adj_rate_.data() + row_start_[i],
          static_cast<std::size_t>(row_start_[i + 1] - row_start_[i])};
}

double SparseContactGraph::rate(NodeId i, NodeId j) const {
  if (i == j) return 0.0;
  if (i >= n_ || j >= n_) {
    throw std::out_of_range("SparseContactGraph: bad node pair");
  }
  const auto ids = neighbor_ids(i);
  const auto it = std::lower_bound(ids.begin(), ids.end(), j);
  if (it == ids.end() || *it != j) return 0.0;
  return adj_rate_[row_start_[i] + static_cast<std::size_t>(it - ids.begin())];
}

double SparseContactGraph::rate_to_set(NodeId i,
                                       std::span<const NodeId> targets) const {
  const auto ids = neighbor_ids(i);  // bounds-checks i
  const auto rates = neighbor_rates(i);
  // Span order with 0.0 for absent pairs: adding +0.0 never changes a
  // non-negative sum, so this matches the dense accumulation bit-for-bit.
  double sum = 0.0;
  for (NodeId t : targets) {
    if (t == i) continue;
    if (t >= n_) throw std::out_of_range("SparseContactGraph: bad node pair");
    const auto it = std::lower_bound(ids.begin(), ids.end(), t);
    if (it != ids.end() && *it == t) {
      sum += rates[static_cast<std::size_t>(it - ids.begin())];
    }
  }
  return sum;
}

double SparseContactGraph::row_rate_sum(NodeId i) const {
  // Ascending row order == dense ascending-j order minus exact zeros.
  double sum = 0.0;
  for (double r : neighbor_rates(i)) sum += r;
  return sum;
}

double SparseContactGraph::total_rate() const {
  // Ascending (i, j), i < j — the dense triangular storage order.
  double sum = 0.0;
  for (NodeId i = 0; i < n_; ++i) {
    const auto ids = neighbor_ids(i);
    const auto rates = neighbor_rates(i);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      if (ids[k] > i) sum += rates[k];
    }
  }
  return sum;
}

void SparseContactGraph::append_neighbors(NodeId i,
                                          std::vector<NodeId>& out) const {
  const auto ids = neighbor_ids(i);
  out.insert(out.end(), ids.begin(), ids.end());
}

std::size_t SparseContactGraph::memory_bytes() const {
  return row_start_.capacity() * sizeof(std::uint64_t) +
         adj_id_.capacity() * sizeof(NodeId) +
         adj_rate_.capacity() * sizeof(double);
}

SparseContactGraph sparse_from_dense(const ContactGraph& dense) {
  const std::size_t n = dense.node_count();
  SparseContactGraph::Builder b(n);
  for (NodeId i = 0; i < n; ++i) {
    const ContactGraph::RowView row = dense.row(i);
    for (NodeId j = i + 1; j < n; ++j) {
      const double r = row.rate(j);
      if (r > 0.0) b.add_edge(i, j, r);
    }
  }
  return std::move(b).build();
}

SparseContactGraph sparse_random_contact_graph(std::size_t n, util::Rng& rng,
                                               double min_ict,
                                               double max_ict) {
  return sparse_from_dense(random_contact_graph(n, rng, min_ict, max_ict));
}

SparseContactGraph sparse_community_contact_graph(
    std::size_t n, std::size_t avg_degree, std::size_t communities,
    util::Rng& rng, double min_ict, double max_ict, double slowdown,
    double intra_fraction) {
  if (n < 2) {
    throw std::invalid_argument("SparseContactGraph: need >= 2 nodes");
  }
  if (avg_degree == 0 || avg_degree >= n) {
    throw std::invalid_argument(
        "sparse_community_contact_graph: avg_degree must be in [1, n)");
  }
  if (communities == 0 || communities > n) {
    throw std::invalid_argument(
        "sparse_community_contact_graph: bad community count");
  }
  if (!(slowdown >= 1.0)) {
    throw std::invalid_argument(
        "sparse_community_contact_graph: slowdown must be >= 1");
  }
  if (!(intra_fraction >= 0.0 && intra_fraction <= 1.0)) {
    throw std::invalid_argument(
        "sparse_community_contact_graph: intra_fraction out of [0,1]");
  }
  check_ict_range("sparse_community_contact_graph", min_ict, max_ict);

  const std::size_t block = (n + communities - 1) / communities;
  SparseContactGraph::Builder b(n);
  // Each node proposes ~avg_degree/2 undirected edges, so the realized mean
  // degree approaches avg_degree (minus duplicate-proposal collapse).
  const std::size_t proposals = std::max<std::size_t>(1, avg_degree / 2);
  for (NodeId i = 0; i < n; ++i) {
    const std::size_t c = i / block;
    const std::size_t c_begin = c * block;
    const std::size_t c_size = std::min(block, n - c_begin);
    for (std::size_t p = 0; p < proposals; ++p) {
      NodeId j;
      const bool intra = c_size > 1 && rng.chance(intra_fraction);
      do {
        if (intra) {
          j = static_cast<NodeId>(c_begin + rng.below(c_size));
        } else {
          j = static_cast<NodeId>(rng.below(n));
        }
      } while (j == i);
      double ict = rng.uniform(min_ict, max_ict);
      if (i / block != j / block) ict *= slowdown;
      b.add_inter_contact_time(i, j, ict);
    }
  }
  return std::move(b).build();
}

}  // namespace odtn::graph
