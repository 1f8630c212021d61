// odtn::metrics — deterministic observability for the simulator stack.
//
// A Registry is a named collection of counters and log-bucketed
// histograms. It is built for the sharded experiment engine: each worker
// (or each run) writes into its own Registry with no synchronization, and
// shards are folded in run order with Registry::merge — exactly the
// RunningStats pattern — so every exported metric is bit-identical at any
// thread count. Every metric is derived purely from simulated state (event
// counts, virtual delays); nothing wall-clock lands in a Registry.
//
// Instrumentation sites hold *handles*, not names: a handle is resolved
// once (one map lookup) and is a single pointer afterwards, so the hot
// path pays one predictable branch plus an add. A null Registry* yields
// inert handles — the off path.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace odtn::metrics {

enum class Kind { kCounter, kHistogram };

/// Returns "counter" or "histogram".
const char* kind_name(Kind kind);

/// Log-bucketed histogram with quantile queries.
///
/// Positive values land in one of kSubBuckets linearly spaced sub-buckets
/// per power of two (relative bucket width at most 1/kSubBuckets / 0.5 =
/// 12.5%, so bucket-midpoint quantiles are accurate to ~±6% relative);
/// zero and negative values share a point bucket at 0. Buckets are stored sparsely, keyed by index, so an empty
/// histogram is two words and merging is count addition — deterministic
/// under the engine's ordered fold.
class Histogram {
 public:
  static constexpr int kSubBuckets = 8;

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty

  /// Empirical quantile (0 <= q <= 1) from bucket midpoints; exact min/max
  /// are returned at q = 0 / q = 1. 0 when empty.
  double quantile(double q) const;

  /// Adds another histogram's buckets and moments.
  void merge(const Histogram& other);

  struct Bucket {
    double lo;  // inclusive
    double hi;  // exclusive (lo == hi == 0 for the zero/negative bucket)
    std::uint64_t count;
  };
  /// Non-empty buckets in increasing value order.
  std::vector<Bucket> buckets() const;

  /// Bucket index a value maps to (exposed for the accuracy tests).
  static int bucket_index(double v);
  /// [lo, hi) bounds of a bucket index.
  static void bucket_bounds(int index, double* lo, double* hi);

  /// Raw sparse (bucket index → count) map — the checkpoint serialization
  /// surface. Unlike buckets(), index keys round-trip exactly.
  const std::map<int, std::uint64_t>& raw_buckets() const { return counts_; }
  /// Rebuilds a histogram from checkpointed state (exact inverse of
  /// reading count()/sum()/min()/max()/raw_buckets()).
  static Histogram from_state(std::uint64_t count, double sum, double min,
                              double max,
                              std::map<int, std::uint64_t> buckets) {
    Histogram h;
    h.count_ = count;
    h.sum_ = sum;
    h.min_ = min;
    h.max_ = max;
    h.counts_ = std::move(buckets);
    return h;
  }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  std::map<int, std::uint64_t> counts_;
};

class Registry;

// ---------------------------------------------------------------------------
// Handles: the things instrumentation sites actually touch.

class CounterHandle {
 public:
  CounterHandle() = default;

  void inc(std::uint64_t delta = 1) {
    if (value_ != nullptr) *value_ += delta;
  }

 private:
  friend class Registry;
  explicit CounterHandle(std::uint64_t* value) : value_(value) {}
  std::uint64_t* value_ = nullptr;
};

class HistogramHandle {
 public:
  HistogramHandle() = default;

  void observe(double v) {
    if (hist_ != nullptr) hist_->observe(v);
  }

 private:
  friend class Registry;
  explicit HistogramHandle(Histogram* hist) : hist_(hist) {}
  Histogram* hist_ = nullptr;
};

// ---------------------------------------------------------------------------
// Registry.

class Registry {
 public:
  /// Resolves a metric handle, creating the metric on first use. A name
  /// resolves to exactly one kind for the Registry's lifetime; re-resolving
  /// under a different kind throws std::logic_error.
  CounterHandle counter(const std::string& name);
  HistogramHandle histogram(const std::string& name);

  /// Folds another registry in: counters add, histograms merge. Kind
  /// conflicts throw std::logic_error.
  void merge(const Registry& other);

  bool empty() const { return metrics_.empty(); }
  std::size_t size() const { return metrics_.size(); }

  // Export surface (MetricsWriter and the tests read through this).
  struct Metric {
    Kind kind = Kind::kCounter;
    std::uint64_t counter = 0;
    Histogram hist;
  };
  /// Metrics in name order (std::map), which fixes the export byte order.
  const std::map<std::string, Metric>& entries() const { return metrics_; }

  /// Installs a metric with an exact value (checkpoint restore). Re-raises
  /// the usual kind-conflict std::logic_error if `name` already resolved to
  /// a different kind.
  void restore(const std::string& name, const Metric& metric);

 private:
  Metric& resolve(const std::string& name, Kind kind);

  std::map<std::string, Metric> metrics_;
};

// ---------------------------------------------------------------------------
// Null-safe resolution: instrumented layers take a `Registry*` that is
// nullptr when observability is off, and resolve handles through these.
// The name is a C string so the off path never constructs (or worse,
// heap-allocates) a std::string — the conversion happens only behind the
// non-null branch.

inline CounterHandle counter(Registry* reg, const char* name) {
  return reg != nullptr ? reg->counter(name) : CounterHandle{};
}

inline HistogramHandle histogram(Registry* reg, const char* name) {
  return reg != nullptr ? reg->histogram(name) : HistogramHandle{};
}

}  // namespace odtn::metrics
