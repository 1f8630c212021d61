// Property tests for the prepared contact-query plans: on random graphs (both
// rate backends, with and without zero-rate pairs) and synthetic traces,
// prepare() / prepare_complement() + first_cross_contact() must agree
// exactly with a naive per-pair reference that replays the pre-plan
// algorithm (first-occurrence dedup, from-major enumeration, one Exp(total)
// draw, one categorical pick by linear scan). A complement plan is checked
// against the reference fed the explicit ascending "not excluded" list. The
// reference and the model consume twin RNG streams, so any divergence in
// draw order or pair order fails.
#include "sim/contact_model.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "graph/contact_graph.hpp"
#include "graph/sparse_contact_graph.hpp"
#include "trace/contact_trace.hpp"
#include "util/rng.hpp"

// TU-wide allocation counter backing the zero-allocation assertion.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace odtn::sim {
namespace {

// The pre-plan Poisson algorithm, verbatim: enumerate from x to, dedup
// unordered pairs at first occurrence, accumulate positive rates, draw the
// aggregate exponential, then pick the pair by linear cumulative scan.
std::optional<CrossContact> naive_poisson(const graph::ContactRates& g,
                                          util::Rng& rng,
                                          const std::vector<NodeId>& from,
                                          const std::vector<NodeId>& to,
                                          Time after, Time horizon) {
  std::unordered_set<std::uint64_t> seen;
  std::vector<NodeId> pa, pb;
  std::vector<double> rates;
  double total = 0.0;
  for (NodeId a : from) {
    for (NodeId b : to) {
      if (a == b) continue;
      const NodeId lo = a < b ? a : b;
      const NodeId hi = a < b ? b : a;
      const std::uint64_t key =
          (static_cast<std::uint64_t>(lo) << 32) | hi;
      if (!seen.insert(key).second) continue;
      const double r = g.rate(a, b);
      if (r > 0.0) {
        pa.push_back(a);
        pb.push_back(b);
        rates.push_back(r);
        total += r;
      }
    }
  }
  if (!(horizon > after)) return std::nullopt;
  if (rates.empty()) return std::nullopt;
  const Time t = after + rng.exponential(total);
  if (t >= horizon) return std::nullopt;
  const double pick = rng.uniform01() * total;
  double cum = 0.0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    cum += rates[i];
    if (pick < cum) return CrossContact{t, pa[i], pb[i]};
  }
  return CrossContact{t, pa.back(), pb.back()};
}

// The pre-plan trace algorithm: linear scan of the time window, from-side
// orientation checked before the reverse.
std::optional<CrossContact> naive_trace(const trace::ContactTrace& trace,
                                        const std::vector<NodeId>& from,
                                        const std::vector<NodeId>& to,
                                        Time after, Time horizon) {
  auto in = [](const std::vector<NodeId>& set, NodeId v) {
    for (NodeId s : set) {
      if (s == v) return true;
    }
    return false;
  };
  for (const auto& e : trace.events()) {
    if (e.time < after) continue;
    if (e.time >= horizon) break;
    if (e.a == e.b) continue;
    if (in(from, e.a) && in(to, e.b)) return CrossContact{e.time, e.a, e.b};
    if (in(from, e.b) && in(to, e.a)) return CrossContact{e.time, e.b, e.a};
  }
  return std::nullopt;
}

// Random node set of size 1..max_len, duplicates and overlaps allowed.
std::vector<NodeId> random_set(util::Rng& rng, std::size_t n,
                               std::size_t max_len) {
  std::vector<NodeId> out(1 + rng.below(max_len));
  for (NodeId& v : out) v = static_cast<NodeId>(rng.below(n));
  return out;
}

// The explicit target list a complement plan stands for: every node of
// [0, n) not in `excluded`, ascending.
std::vector<NodeId> not_excluded(std::size_t n,
                                 const std::vector<NodeId>& excluded) {
  std::vector<NodeId> out;
  for (NodeId v = 0; v < n; ++v) {
    bool hit = false;
    for (NodeId x : excluded) hit = hit || x == v;
    if (!hit) out.push_back(v);
  }
  return out;
}

// Polls a prepared Poisson plan 50 times against the naive reference over
// the explicit lists (from, to), on the model's and the reference's twin
// RNG streams.
void expect_poisson_matches_naive(ContactModel& model, const ContactQuery& plan,
                                  const graph::ContactRates& g,
                                  util::Rng& ref_rng,
                                  const std::vector<NodeId>& from,
                                  const std::vector<NodeId>& to,
                                  const std::string& where) {
  for (int q = 0; q < 50; ++q) {
    const Time after = 3.0 * q;
    const Time horizon = after + (q % 7 == 0 ? 0.0 : 25.0);
    auto got = model.first_cross_contact(plan, after, horizon);
    auto want = naive_poisson(g, ref_rng, from, to, after, horizon);
    ASSERT_EQ(got.has_value(), want.has_value()) << where << " query " << q;
    if (got.has_value()) {
      EXPECT_EQ(got->time, want->time) << where << " query " << q;
      EXPECT_EQ(got->a, want->a) << where << " query " << q;
      EXPECT_EQ(got->b, want->b) << where << " query " << q;
    }
  }
}

// Polls a prepared trace plan over a sliding window against the naive scan
// over the explicit lists (from, to).
void expect_trace_matches_naive(ContactModel& model, const ContactQuery& plan,
                                const trace::ContactTrace& trace,
                                const std::vector<NodeId>& from,
                                const std::vector<NodeId>& to,
                                const std::string& where) {
  for (int q = 0; q < 40; ++q) {
    const Time after = 15.0 * q - 30.0;
    const Time horizon = after + 80.0;
    auto got = model.first_cross_contact(plan, after, horizon);
    auto want = naive_trace(trace, from, to, after, horizon);
    ASSERT_EQ(got.has_value(), want.has_value()) << where << " query " << q;
    if (got.has_value()) {
      EXPECT_EQ(got->time, want->time) << where << " query " << q;
      EXPECT_EQ(got->a, want->a) << where << " query " << q;
      EXPECT_EQ(got->b, want->b) << where << " query " << q;
    }
  }
}

TEST(ContactQueryProperty, PoissonMatchesNaiveScanOnRandomGraphs) {
  util::Rng meta(2024);
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = 4 + meta.below(12);
    util::Rng graph_rng(meta.next());
    // The second half leaves ~60% of the pairs at rate zero.
    const graph::ContactGraph dense =
        round < 30 ? graph::random_contact_graph(n, graph_rng)
                   : graph::sparse_contact_graph(n, 0.4, graph_rng);
    const graph::SparseContactGraph csr = graph::sparse_from_dense(dense);

    const auto from = random_set(meta, n, 6);
    const auto to = random_set(meta, n, 6);
    const auto excluded = random_set(meta, n, 6);
    const auto kept = not_excluded(n, excluded);
    const std::uint64_t seed = meta.next();

    // Each backend runs against the reference on its own twin streams: an
    // explicit plan first, then a complement plan on the same streams.
    auto check = [&](const auto& g, const char* backend) {
      const std::string where =
          "round " + std::to_string(round) + " " + backend;
      util::Rng model_rng(seed), ref_rng(seed);
      PoissonContactModel model(g, model_rng);
      ContactQuery plan;
      model.prepare(plan, from, to);
      expect_poisson_matches_naive(model, plan, g, ref_rng, from, to,
                                   where + " explicit");
      model.prepare_complement(plan, from, excluded);
      expect_poisson_matches_naive(model, plan, g, ref_rng, from, kept,
                                   where + " complement");
    };
    check(dense, "dense");
    check(csr, "sparse");
  }
}

TEST(ContactQueryProperty, TraceMatchesNaiveScanOnSyntheticTraces) {
  util::Rng meta(77);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 3 + meta.below(10);
    std::vector<trace::ContactEvent> events;
    const std::size_t count = 5 + meta.below(60);
    for (std::size_t i = 0; i < count; ++i) {
      NodeId a = static_cast<NodeId>(meta.below(n));
      NodeId b = static_cast<NodeId>(meta.below(n - 1));
      if (b >= a) ++b;
      events.push_back({meta.uniform(0.0, 500.0), a, b});
    }
    trace::ContactTrace trace(n, std::move(events));
    TraceContactModel model(trace);

    const auto from = random_set(meta, n, 5);
    const auto to = random_set(meta, n, 5);
    const auto excluded = random_set(meta, n, 5);
    const std::string where = "round " + std::to_string(round);
    ContactQuery plan;
    model.prepare(plan, from, to);
    expect_trace_matches_naive(model, plan, trace, from, to,
                               where + " explicit");
    model.prepare_complement(plan, from, excluded);
    expect_trace_matches_naive(model, plan, trace, from,
                               not_excluded(n, excluded),
                               where + " complement");
  }
}

TEST(ContactQueryProperty, SteadyStateQueriesDoNotAllocate) {
  util::Rng rng(5);
  graph::ContactGraph g = graph::random_contact_graph(50, rng);
  const graph::SparseContactGraph csr = graph::sparse_from_dense(g);
  std::vector<NodeId> from = {0, 1, 2, 3, 4};
  std::vector<NodeId> to = {10, 11, 12, 13, 14, 15};
  std::vector<NodeId> excluded = {1, 3, 20, 21, 22};

  // Explicit and complement plans plus both one-shot surfaces, re-prepared
  // every iteration: after one warm-up pass nothing may allocate.
  double sink = 0.0;
  auto allocations = [&](ContactModel& model) {
    ContactQuery plan, spray;
    model.prepare(plan, from, to);
    model.prepare_complement(spray, from, excluded);
    (void)model.first_cross_contact(from, to, 0.0, 1.0);
    (void)model.first_cross_contact_complement(from, excluded, 0.0, 1.0);

    const std::uint64_t before = g_alloc_count.load();
    for (int q = 0; q < 1000; ++q) {
      const Time t = static_cast<Time>(q);
      for (const auto& c :
           {model.first_cross_contact(plan, t, 1e9),
            model.first_cross_contact(from, to, t, 1e9),
            model.first_cross_contact(spray, t, 1e9),
            model.first_cross_contact_complement(from, excluded, t, 1e9)}) {
        if (c.has_value()) sink += c->time;
      }
      model.prepare(plan, from, to);  // re-prepare reuses the buffers
      model.prepare_complement(spray, from, excluded);
    }
    return g_alloc_count.load() - before;
  };

  PoissonContactModel dense_model(g, rng);
  EXPECT_EQ(allocations(dense_model), 0u) << "sink=" << sink;
  PoissonContactModel sparse_model(csr, rng);
  EXPECT_EQ(allocations(sparse_model), 0u) << "sink=" << sink;
}

}  // namespace
}  // namespace odtn::sim
