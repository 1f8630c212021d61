#include "sim/contact_model.hpp"

#include <algorithm>
#include <stdexcept>

namespace odtn::sim {

namespace {

// Row adapters: the two reads a plan needs from node a's row of either rate
// backend — the rate to one peer, and every positive-rate peer in ascending
// id order.
struct DenseRow {
  graph::ContactGraph::RowView row;
  std::size_t n;

  double rate(NodeId b) const { return row.rate(b); }

  template <class F>
  void for_each_peer(F&& f) const {
    for (NodeId b = 0; b < n; ++b) {
      const double r = row.rate(b);  // 0 for b == a
      if (r > 0.0) f(b, r);
    }
  }
};

// Pairs absent from the CSR row are exactly the dense zero-rate pairs.
struct SparseRow {
  std::span<const NodeId> ids;
  std::span<const double> rates;

  double rate(NodeId b) const {
    const auto it = std::lower_bound(ids.begin(), ids.end(), b);
    if (it == ids.end() || *it != b) return 0.0;
    return rates[static_cast<std::size_t>(it - ids.begin())];
  }

  template <class F>
  void for_each_peer(F&& f) const {
    for (std::size_t k = 0; k < ids.size(); ++k) f(ids[k], rates[k]);
  }
};

DenseRow row_of(const graph::ContactGraph& g, NodeId a) {
  return {g.row(a), g.node_count()};
}

SparseRow row_of(const graph::SparseContactGraph& g, NodeId a) {
  return {g.neighbor_ids(a), g.neighbor_rates(a)};
}

// True when some a in the from-bitmap and some b in the to-bitmap differ;
// otherwise no event can ever match. Reads up to two members of each set.
bool has_candidates(const std::vector<std::uint8_t>& in_from,
                    const std::vector<std::uint8_t>& in_to) {
  auto first_two = [](const std::vector<std::uint8_t>& in, std::size_t& first) {
    std::size_t count = 0;
    for (std::size_t v = 0; v < in.size() && count < 2; ++v) {
      if (in[v] != 0 && count++ == 0) first = v;
    }
    return count;
  };
  std::size_t from_first = 0, to_first = 0;
  const std::size_t from_count = first_two(in_from, from_first);
  const std::size_t to_count = first_two(in_to, to_first);
  return from_count > 0 && to_count > 0 &&
         (from_count > 1 || to_count > 1 || from_first != to_first);
}

}  // namespace

PoissonContactModel::PoissonContactModel(const graph::ContactGraph& graph,
                                         util::Rng& rng)
    : dense_(&graph), n_(graph.node_count()), rng_(&rng) {}

PoissonContactModel::PoissonContactModel(const graph::SparseContactGraph& graph,
                                         util::Rng& rng)
    : sparse_(&graph), n_(graph.node_count()), rng_(&rng) {}

void PoissonContactModel::prepare(ContactQuery& q, std::span<const NodeId> from,
                                  std::span<const NodeId> to) {
  if (dense_ != nullptr) {
    build_plan<false>(*dense_, q, from, to);
  } else {
    build_plan<false>(*sparse_, q, from, to);
  }
}

void PoissonContactModel::prepare_complement(ContactQuery& q,
                                             std::span<const NodeId> from,
                                             std::span<const NodeId> excluded) {
  if (dense_ != nullptr) {
    build_plan<true>(*dense_, q, from, excluded);
  } else {
    build_plan<true>(*sparse_, q, from, excluded);
  }
}

template <bool kComplement, class Graph>
void PoissonContactModel::build_plan(const Graph& graph, ContactQuery& q,
                                     std::span<const NodeId> from,
                                     std::span<const NodeId> to) {
  q.reset(ContactQuery::Backend::kPoisson, this);
  if (from_stamp_.size() < n_) {
    from_stamp_.resize(n_, 0);
    to_stamp_.resize(n_, 0);
    from_pos_.resize(n_);
    to_pos_.resize(n_);
  }

  // Pass 1: stamp each node's first occurrence index in its span.
  ++epoch_;
  auto stamp = [this](std::span<const NodeId> nodes,
                      std::vector<std::uint64_t>& stamps,
                      std::vector<std::uint32_t>& pos) {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const NodeId v = nodes[i];
      if (v >= n_) throw std::out_of_range("ContactModel: bad node id");
      if (stamps[v] != epoch_) {
        stamps[v] = epoch_;
        pos[v] = static_cast<std::uint32_t>(i);
      }
    }
  };
  stamp(from, from_stamp_, from_pos_);
  stamp(to, to_stamp_, to_pos_);

  // Pass 2: collect candidate unordered pairs in enumeration order. A pair
  // reachable via both orientations (when the sets overlap) is counted once,
  // at its lexicographically first (i, j) enumeration — exactly the pair
  // the historical per-poll hash-set dedup kept. The prefix sums accumulate
  // in the same order and with the same additions as the old running
  // `total`, so the categorical pick is bit-identical. A complement plan
  // takes the targets in ascending id order, so it is exactly the explicit
  // plan over the ascending list of non-excluded nodes.
  double cum = 0.0;
  for (std::size_t i = 0; i < from.size(); ++i) {
    const NodeId a = from[i];
    if (from_pos_[a] != i) continue;  // duplicate occurrence of a
    const auto row = row_of(graph, a);
    // The reversed orientation (b, a) exists iff b is in `from` and a is a
    // target; it wins iff it appears in an earlier row. (from_pos_[b] == i
    // is impossible: from[i] == a != b.)
    const bool a_is_target = (to_stamp_[a] == epoch_) != kComplement;
    auto reversed_first = [&](NodeId b) {
      return a_is_target && from_stamp_[b] == epoch_ && from_pos_[b] < i;
    };
    auto push = [&](NodeId b, double r) {
      cum += r;
      q.pair_a_.push_back(a);
      q.pair_b_.push_back(b);
      q.prefix_.push_back(cum);
    };
    if constexpr (kComplement) {
      // O(degree) on the CSR backend: only a's positive-rate peers.
      row.for_each_peer([&](NodeId b, double r) {
        if (to_stamp_[b] != epoch_ && !reversed_first(b)) push(b, r);
      });
    } else {
      for (std::size_t j = 0; j < to.size(); ++j) {
        const NodeId b = to[j];
        if (a == b) continue;
        if (to_pos_[b] != j) continue;  // duplicate occurrence of b
        if (reversed_first(b)) continue;
        const double r = row.rate(b);
        if (r > 0.0) push(b, r);
      }
    }
  }
  q.total_ = cum;
}

std::optional<CrossContact> PoissonContactModel::first_cross_contact(
    const ContactQuery& q, Time after, Time horizon) {
  if (q.backend_ != ContactQuery::Backend::kPoisson || q.owner_ != this) {
    throw std::logic_error("ContactQuery: plan belongs to a different model");
  }
  if (!(horizon > after)) return std::nullopt;
  if (q.prefix_.empty()) return std::nullopt;

  // Superposition of Poisson processes: the first event arrives after an
  // Exp(total) wait and belongs to pair p with probability rate_p / total.
  const Time t = after + rng_->exponential(q.total_);
  if (t >= horizon) return std::nullopt;

  const double pick = rng_->uniform01() * q.total_;
  // First pair whose inclusive prefix sum exceeds `pick` — the same pair a
  // linear `cum += rate; if (pick < cum)` scan selects.
  const auto it = std::upper_bound(q.prefix_.begin(), q.prefix_.end(), pick);
  const std::size_t idx =
      it == q.prefix_.end()
          ? q.prefix_.size() - 1  // floating-point slack: last pair
          : static_cast<std::size_t>(it - q.prefix_.begin());
  return CrossContact{t, q.pair_a_[idx], q.pair_b_[idx]};
}

TraceContactModel::TraceContactModel(const trace::ContactTrace& trace)
    : trace_(&trace) {}

void TraceContactModel::prepare(ContactQuery& q, std::span<const NodeId> from,
                                std::span<const NodeId> to) {
  const std::size_t n = trace_->node_count();
  q.reset(ContactQuery::Backend::kTrace, this);
  q.in_from_.assign(n, 0);
  q.in_to_.assign(n, 0);
  // Ids >= n can never match an event.
  for (const NodeId a : from) {
    if (a < n) q.in_from_[a] = 1;
  }
  for (const NodeId b : to) {
    if (b < n) q.in_to_[b] = 1;
  }
  q.has_candidates_ = has_candidates(q.in_from_, q.in_to_);
}

void TraceContactModel::prepare_complement(ContactQuery& q,
                                           std::span<const NodeId> from,
                                           std::span<const NodeId> excluded) {
  const std::size_t n = trace_->node_count();
  q.reset(ContactQuery::Backend::kTrace, this);
  q.in_from_.assign(n, 0);
  q.in_to_.assign(n, 1);  // complement: everyone in, then excluded drop out
  for (const NodeId a : from) {
    if (a < n) q.in_from_[a] = 1;
  }
  for (const NodeId b : excluded) {
    if (b < n) q.in_to_[b] = 0;
  }
  q.has_candidates_ = has_candidates(q.in_from_, q.in_to_);
}

std::optional<CrossContact> TraceContactModel::first_cross_contact(
    const ContactQuery& q, Time after, Time horizon) {
  if (q.backend_ != ContactQuery::Backend::kTrace || q.owner_ != this) {
    throw std::logic_error("ContactQuery: plan belongs to a different model");
  }
  if (!(horizon > after)) return std::nullopt;
  if (!q.has_candidates_) return std::nullopt;

  const auto& events = trace_->events();
  auto it = std::lower_bound(events.begin(), events.end(), after,
                             [](const trace::ContactEvent& e, Time t) {
                               return e.time < t;
                             });
  for (; it != events.end() && it->time < horizon; ++it) {
    if (it->a == it->b) continue;
    if (q.in_from_[it->a] != 0 && q.in_to_[it->b] != 0) {
      return CrossContact{it->time, it->a, it->b};
    }
    if (q.in_from_[it->b] != 0 && q.in_to_[it->a] != 0) {
      return CrossContact{it->time, it->b, it->a};
    }
  }
  return std::nullopt;
}

}  // namespace odtn::sim
