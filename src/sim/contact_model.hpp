// Contact dynamics abstraction for the DTN simulator.
//
// Routing protocols only ever need one primitive: "when is the next
// contact between some node of set A and some node of set B, after time
// t?". Two implementations exist:
//
//  * PoissonContactModel — samples live from the contact graph's Poisson
//    processes, over either rate backend (dense ContactGraph or CSR
//    SparseContactGraph). Memorylessness makes state-by-state resampling an
//    *exact* simulation of the contact processes (no approximation is
//    introduced), while never touching the analytical delivery-rate model
//    the simulator is supposed to validate.
//  * TraceContactModel — replays a recorded or synthetic ContactTrace.
//
// The query surface is built around *prepared plans*: `prepare()` compiles
// a (from-set, to-set) pair into a reusable ContactQuery — deduped pair
// list, per-pair rates and an inclusive prefix-sum table on the Poisson
// side, membership bitmaps on the trace side — and
// `first_cross_contact(plan, after, horizon)` then answers each poll with
// one Exp(total) draw plus one binary-search categorical pick and zero
// heap allocations. Preparing into a caller-owned plan reuses its buffers,
// so steady-state polling (the simulator hot loop) never allocates.
//
// Determinism contract: the pair enumeration order, the prefix sums (same
// floating-point accumulation order), and the RNG draw sequence (exactly
// one exponential, then — only if the event lands inside the horizon —
// one uniform per non-empty query; no draws for empty plans or empty
// windows) are identical to the historical per-poll implementation, so
// every recorded figure/metrics baseline is byte-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/contact_graph.hpp"
#include "graph/sparse_contact_graph.hpp"
#include "trace/contact_trace.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace odtn::sim {

/// A realized contact: node `a` (from the first queried set) meets node `b`
/// (from the second) at `time`.
struct CrossContact {
  Time time;
  NodeId a;
  NodeId b;
};

/// A prepared (from-set, to-set) contact query. Opaque to callers: build
/// one with ContactModel::prepare() and pass it back to the *same* model's
/// first_cross_contact(). Reusable — re-preparing an existing plan keeps
/// its buffers, so a caller that holds one plan per hop never allocates on
/// the steady-state path.
class ContactQuery {
 public:
  ContactQuery() = default;

  /// True when no contact can ever satisfy the query (no candidate pair
  /// with positive rate / no candidate node pair in the trace).
  bool empty() const {
    switch (backend_) {
      case Backend::kPoisson:
        return prefix_.empty();
      case Backend::kTrace:
        return !has_candidates_;
      case Backend::kNone:
        return true;
    }
    return true;
  }

  /// Number of distinct positive-rate pairs (Poisson plans; 0 otherwise).
  std::size_t pair_count() const { return prefix_.size(); }

  /// Aggregate contact rate over all pairs (Poisson plans; 0 otherwise).
  double total_rate() const { return total_; }

 private:
  friend class PoissonContactModel;
  friend class TraceContactModel;

  enum class Backend : std::uint8_t { kNone, kPoisson, kTrace };

  /// Empties the plan (keeping its buffers) and marks it as `owner`'s.
  void reset(Backend backend, const void* owner) {
    backend_ = backend;
    owner_ = owner;
    pair_a_.clear();
    pair_b_.clear();
    prefix_.clear();
    total_ = 0.0;
    has_candidates_ = false;
  }

  Backend backend_ = Backend::kNone;
  const void* owner_ = nullptr;

  // Poisson backend: deduped pair list in enumeration order plus the
  // inclusive prefix sums of their rates; total_ == prefix_.back().
  std::vector<NodeId> pair_a_;
  std::vector<NodeId> pair_b_;
  std::vector<double> prefix_;
  double total_ = 0.0;

  // Trace backend: membership bitmaps indexed by NodeId.
  std::vector<std::uint8_t> in_from_;
  std::vector<std::uint8_t> in_to_;
  bool has_candidates_ = false;
};

class ContactModel {
 public:
  virtual ~ContactModel() = default;

  virtual std::size_t node_count() const = 0;

  /// Compiles (from, to) into `q`, reusing q's buffers. The plan answers
  /// "first contact at time >= after and < horizon between any a in `from`
  /// and any b in `to`" (unordered pairs; a pair occurring in both
  /// orientations is considered once; self-pairs are ignored). The plan is
  /// only valid for this model and must be re-prepared if the sets change.
  virtual void prepare(ContactQuery& q, std::span<const NodeId> from,
                       std::span<const NodeId> to) = 0;

  /// Convenience: returns a freshly allocated plan.
  ContactQuery prepare(std::span<const NodeId> from,
                       std::span<const NodeId> to) {
    ContactQuery q;
    prepare(q, from, to);
    return q;
  }

  /// Compiles (from, all nodes NOT in `excluded`) into `q`. Equivalent to
  /// prepare() with an explicit ascending target list of every node outside
  /// `excluded`, but without the caller materializing that O(n) list: on
  /// sparse backends the plan is built from the from-nodes' adjacency rows
  /// in O(sum degree). This is the scalable form of the "spray to anyone
  /// new" queries that previously enumerated all n nodes per poll.
  virtual void prepare_complement(ContactQuery& q, std::span<const NodeId> from,
                                  std::span<const NodeId> excluded) = 0;

  /// Answers a prepared query: first contact in [after, horizon). Zero
  /// heap allocations. `q` must have been prepared by this model.
  virtual std::optional<CrossContact> first_cross_contact(
      const ContactQuery& q, Time after, Time horizon) = 0;

  /// One-shot convenience: prepare-and-query through an internal scratch
  /// plan (still allocation-free at steady state; the scratch buffers are
  /// reused across calls).
  std::optional<CrossContact> first_cross_contact(std::span<const NodeId> from,
                                                  std::span<const NodeId> to,
                                                  Time after, Time horizon) {
    prepare(scratch_, from, to);
    return first_cross_contact(scratch_, after, horizon);
  }

  /// One-shot complement query: first contact between `from` and any node
  /// NOT in `excluded`, in [after, horizon).
  std::optional<CrossContact> first_cross_contact_complement(
      std::span<const NodeId> from, std::span<const NodeId> excluded,
      Time after, Time horizon) {
    prepare_complement(scratch_, from, excluded);
    return first_cross_contact(scratch_, after, horizon);
  }

 private:
  ContactQuery scratch_;
};

/// Live-sampled Poisson contacts over a dense ContactGraph or a CSR
/// SparseContactGraph. prepare() costs |from| * |to| rate lookups (O(1)
/// dense, O(log degree) CSR); prepare_complement() walks each from-node's
/// positive-rate peers, O(n) dense and O(degree) CSR. Both backends
/// enumerate pairs in the same order, so a sparse graph holding the same
/// rates as a dense one yields bit-identical plans (same pair order, same
/// prefix sums), hence identical simulations.
class PoissonContactModel final : public ContactModel {
 public:
  /// Both references must outlive the model.
  PoissonContactModel(const graph::ContactGraph& graph, util::Rng& rng);
  PoissonContactModel(const graph::SparseContactGraph& graph, util::Rng& rng);

  std::size_t node_count() const override { return n_; }

  using ContactModel::first_cross_contact;
  using ContactModel::prepare;

  void prepare(ContactQuery& q, std::span<const NodeId> from,
               std::span<const NodeId> to) override;

  void prepare_complement(ContactQuery& q, std::span<const NodeId> from,
                          std::span<const NodeId> excluded) override;

  std::optional<CrossContact> first_cross_contact(const ContactQuery& q,
                                                  Time after,
                                                  Time horizon) override;

 private:
  /// The one plan builder. kComplement = false reads `to` as the explicit
  /// target list; true reads it as the excluded set, the targets being
  /// every other node. A compile-time parameter so that neither inner loop
  /// pays a per-pair branch on the plan kind.
  template <bool kComplement, class Graph>
  void build_plan(const Graph& graph, ContactQuery& q,
                  std::span<const NodeId> from, std::span<const NodeId> to);

  // Exactly one backend is set.
  const graph::ContactGraph* dense_ = nullptr;
  const graph::SparseContactGraph* sparse_ = nullptr;
  std::size_t n_;
  util::Rng* rng_;

  // Epoch-stamped first-occurrence tables for exact pair dedup without a
  // per-call hash set. stamp[v] == epoch_ means v was seen during the
  // current build and pos[v] is its first index in the span; for a
  // complement plan to_stamp_ marks the excluded nodes.
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> from_stamp_;
  std::vector<std::uint64_t> to_stamp_;
  std::vector<std::uint32_t> from_pos_;
  std::vector<std::uint32_t> to_pos_;
};

/// Replays a recorded ContactTrace.
class TraceContactModel final : public ContactModel {
 public:
  /// The trace must outlive the model.
  explicit TraceContactModel(const trace::ContactTrace& trace);

  std::size_t node_count() const override { return trace_->node_count(); }

  using ContactModel::first_cross_contact;
  using ContactModel::prepare;

  void prepare(ContactQuery& q, std::span<const NodeId> from,
               std::span<const NodeId> to) override;

  void prepare_complement(ContactQuery& q, std::span<const NodeId> from,
                          std::span<const NodeId> excluded) override;

  std::optional<CrossContact> first_cross_contact(const ContactQuery& q,
                                                  Time after,
                                                  Time horizon) override;

 private:
  const trace::ContactTrace* trace_;
};

}  // namespace odtn::sim
