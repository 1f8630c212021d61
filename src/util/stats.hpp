// Streaming statistics for experiment aggregation.
#pragma once

#include <cstddef>

namespace odtn::util {

/// Welford's online algorithm: numerically stable running mean/variance.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  /// Unbiased sample variance (n-1 denominator); 0 when n < 2.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean; 0 when n < 2.
  double stderr_mean() const;
  /// Half-width of the ~95% normal confidence interval on the mean.
  double ci95_halfwidth() const;
  double min() const { return min_; }
  double max() const { return max_; }

  /// Merges another accumulator (parallel aggregation).
  void merge(const RunningStats& other);

  /// Raw Welford state, for exact checkpoint round-trips: m2 must be
  /// stored as-is (reconstructing it from variance() would lose bits).
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double min = 0.0;
    double max = 0.0;
  };
  State state() const { return {n_, mean_, m2_, min_, max_}; }
  static RunningStats from_state(const State& s) {
    RunningStats r;
    r.n_ = s.n;
    r.mean_ = s.mean;
    r.m2_ = s.m2;
    r.min_ = s.min;
    r.max_ = s.max;
    return r;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace odtn::util
