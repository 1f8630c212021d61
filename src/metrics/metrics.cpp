#include "metrics/metrics.hpp"

#include <cmath>
#include <stdexcept>

namespace odtn::metrics {

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCounter:
      return "counter";
    case Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

namespace {

// frexp exponents of finite doubles lie in [-1073, 1024] (subnormals
// included); the bias keeps every index positive, with index 0 reserved
// for the zero/negative point bucket.
constexpr int kExpBias = 1100;
constexpr int kMaxIndex =
    1 + (1024 + kExpBias) * Histogram::kSubBuckets + Histogram::kSubBuckets - 1;

}  // namespace

int Histogram::bucket_index(double v) {
  if (!(v > 0.0)) return 0;  // zero, negative, NaN
  if (std::isinf(v)) return kMaxIndex;
  int exp;
  double frac = std::frexp(v, &exp);  // frac in [0.5, 1)
  int sub = static_cast<int>((frac - 0.5) * (2 * kSubBuckets));
  if (sub >= kSubBuckets) sub = kSubBuckets - 1;
  return 1 + (exp + kExpBias) * kSubBuckets + sub;
}

void Histogram::bucket_bounds(int index, double* lo, double* hi) {
  if (index <= 0) {
    *lo = 0.0;
    *hi = 0.0;
    return;
  }
  int i = index - 1;
  int exp = i / kSubBuckets - kExpBias;
  int sub = i % kSubBuckets;
  double step = 0.5 / kSubBuckets;
  *lo = std::ldexp(0.5 + sub * step, exp);
  *hi = std::ldexp(0.5 + (sub + 1) * step, exp);
}

void Histogram::observe(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }
  ++count_;
  sum_ += v;
  ++counts_[bucket_index(v)];
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::min() const { return count_ == 0 ? 0.0 : min_; }

double Histogram::max() const { return count_ == 0 ? 0.0 : max_; }

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return min();
  if (q >= 1.0) return max();
  // Rank of the q-quantile sample, 1-based.
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  if (rank == 0) rank = 1;
  std::uint64_t cumulative = 0;
  for (const auto& [index, n] : counts_) {
    cumulative += n;
    if (cumulative >= rank) {
      if (index == 0) return 0.0;
      double lo, hi;
      bucket_bounds(index, &lo, &hi);
      // Bucket midpoint, clamped by the exact extremes.
      double mid = 0.5 * (lo + hi);
      if (mid < min_) mid = min_;
      if (mid > max_) mid = max_;
      return mid;
    }
  }
  return max();  // unreachable: counts_ sums to count_
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (const auto& [index, n] : other.counts_) counts_[index] += n;
}

std::vector<Histogram::Bucket> Histogram::buckets() const {
  std::vector<Bucket> out;
  out.reserve(counts_.size());
  for (const auto& [index, n] : counts_) {
    Bucket b;
    bucket_bounds(index, &b.lo, &b.hi);
    b.count = n;
    out.push_back(b);
  }
  return out;
}

Registry::Metric& Registry::resolve(const std::string& name, Kind kind) {
  auto [it, inserted] = metrics_.try_emplace(name);
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    throw std::logic_error("metrics: '" + name + "' registered as " +
                           kind_name(it->second.kind) + ", requested as " +
                           kind_name(kind));
  }
  return it->second;
}

CounterHandle Registry::counter(const std::string& name) {
  return CounterHandle(&resolve(name, Kind::kCounter).counter);
}

HistogramHandle Registry::histogram(const std::string& name) {
  return HistogramHandle(&resolve(name, Kind::kHistogram).hist);
}

void Registry::restore(const std::string& name, const Metric& metric) {
  resolve(name, metric.kind) = metric;
}

void Registry::merge(const Registry& other) {
  for (const auto& [name, theirs] : other.metrics_) {
    Metric& ours = resolve(name, theirs.kind);
    ours.counter += theirs.counter;
    ours.hist.merge(theirs.hist);
  }
}

}  // namespace odtn::metrics
