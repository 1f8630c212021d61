#include "analysis/hypoexp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/lgamma_safe.hpp"

namespace odtn::analysis {

namespace {

void validate(const std::vector<double>& rates) {
  if (rates.empty()) {
    throw std::invalid_argument("hypoexp: need >= 1 stage");
  }
  for (double v : rates) {
    if (!(v > 0.0)) {
      throw std::invalid_argument("hypoexp: rates must be positive");
    }
  }
}

// log(k!) = lgamma_safe(k + 1) for k = 0, 1, ..., grown lazily to the
// largest k this thread's uniformization has reached. One table per thread:
// no shared mutable state, so no lock, and a cold thread pays only for the
// terms it uses.
std::vector<double>& log_factorials() {
  thread_local std::vector<double> table;
  return table;
}

}  // namespace

std::vector<double> hypoexp_coefficients(const std::vector<double>& rates) {
  validate(rates);
  // Eq. 5 literally. Only meaningful for well-separated rates; the CDF
  // below never uses this path (it uses uniformization, which has no
  // degeneracy problem). Kept as the paper's closed form for reference and
  // for tests on distinct rates.
  std::vector<double> coeff(rates.size());
  for (std::size_t k = 0; k < rates.size(); ++k) {
    long double a = 1.0L;
    for (std::size_t j = 0; j < rates.size(); ++j) {
      if (j == k) continue;
      long double diff = static_cast<long double>(rates[j]) - rates[k];
      if (diff == 0.0L) {
        throw std::invalid_argument(
            "hypoexp_coefficients: duplicate rates have no partial-fraction "
            "form; use hypoexp_cdf");
      }
      a *= rates[j] / diff;
    }
    coeff[k] = static_cast<double>(a);
  }
  return coeff;
}

double hypoexp_cdf(const std::vector<double>& rates, double t) {
  validate(rates);
  if (t <= 0.0) return 0.0;
  if (rates.size() == 1) return -std::expm1(-rates[0] * t);

  // Uniformization of the absorbing birth chain 0 -> 1 -> ... -> n.
  // Exact for any rate multiset (unlike the partial-fraction form, which
  // degenerates for equal rates), and unconditionally stable: every term
  // is non-negative, so no cancellation occurs.
  const std::size_t n = rates.size();
  const double uniform_rate = *std::max_element(rates.begin(), rates.end());
  const double x = uniform_rate * t;

  // Transient distribution over states 0..n-1 after k DTMC jumps.
  std::vector<double> v(n, 0.0);
  v[0] = 1.0;

  // Accumulate P(still transient at t) = sum_k pois(k; x) * mass_k.
  double survival = 0.0;
  double weight_covered = 0.0;
  const std::size_t k_max =
      static_cast<std::size_t>(x + 12.0 * std::sqrt(x + 1.0) + 60.0);
  // The Poisson weight comes from its log, so large x cannot underflow it.
  const double log_x = std::log(x);
  std::vector<double>& lg = log_factorials();
  for (std::size_t k = 0; k <= k_max; ++k) {
    if (k == lg.size()) {
      lg.push_back(detail::lgamma_safe(static_cast<double>(k) + 1.0));
    }
    double pois = std::exp(-x + static_cast<double>(k) * log_x - lg[k]);
    double mass = 0.0;
    for (double vi : v) mass += vi;
    survival += pois * mass;
    weight_covered += pois;
    if (weight_covered > 1.0 - 1e-15 || mass < 1e-18) break;

    // One DTMC step: state i advances with probability rates[i]/uniform.
    for (std::size_t i = n; i-- > 0;) {
      double advance = rates[i] / uniform_rate;
      double moving = v[i] * advance;
      v[i] -= moving;
      if (i + 1 < n) v[i + 1] += moving;
      // moving out of the last state is absorption.
    }
  }
  // Poisson tail not covered is all "still transient" at worst; survival is
  // already an underestimate by at most (1 - weight_covered) <= 1e-15 * mass.
  return std::clamp(1.0 - survival, 0.0, 1.0);
}

double hypoexp_quantile(const std::vector<double>& rates, double q) {
  validate(rates);
  if (!(q >= 0.0) || q >= 1.0) {
    throw std::invalid_argument("hypoexp_quantile: q must be in [0, 1)");
  }
  if (q == 0.0) return 0.0;
  // Bracket: the mean plus enough standard deviations always covers q < 1;
  // grow geometrically to be safe.
  double hi = hypoexp_mean(rates);
  while (hypoexp_cdf(rates, hi) < q) hi *= 2.0;
  double lo = 0.0;
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-12 * (1.0 + hi); ++iter) {
    double mid = 0.5 * (lo + hi);
    if (hypoexp_cdf(rates, mid) >= q) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

double hypoexp_mean(const std::vector<double>& rates) {
  validate(rates);
  double mean = 0.0;
  for (double r : rates) mean += 1.0 / r;
  return mean;
}

}  // namespace odtn::analysis
