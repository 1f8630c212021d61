#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace odtn::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  return n_ < 2 ? 0.0 : stddev() / std::sqrt(static_cast<double>(n_));
}

double RunningStats::ci95_halfwidth() const { return 1.96 * stderr_mean(); }

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  std::size_t n = n_ + other.n_;
  double delta = other.mean_ - mean_;
  double mean = mean_ + delta * static_cast<double>(other.n_) /
                            static_cast<double>(n);
  m2_ += other.m2_ + delta * delta * static_cast<double>(n_) *
                         static_cast<double>(other.n_) /
                         static_cast<double>(n);
  mean_ = mean;
  n_ = n;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace odtn::util
