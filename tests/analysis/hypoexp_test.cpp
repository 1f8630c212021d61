#include "analysis/hypoexp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/lgamma_safe.hpp"
#include "util/rng.hpp"

namespace odtn::analysis {
namespace {

// The evaluator as it was before its log(x) and lgamma(k + 1) came out of
// the term loop, kept verbatim as the bit-level reference for the current
// one (hypoexp_mean did not change and is the library's).
namespace reference {

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

// log of the Poisson pmf, for underflow-free weights at large x.
double log_poisson(double x, std::size_t k) {
  return -x + static_cast<double>(k) * std::log(x) -
         detail::lgamma_safe(static_cast<double>(k) + 1.0);
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
  for (std::size_t k = 0; k <= k_max; ++k) {
    double pois = std::exp(log_poisson(x, k));
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
  double hi = analysis::hypoexp_mean(rates);
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

}  // namespace reference

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// A random rate multiset of 1-8 stages, some rates repeated, log-uniform
// over `decades` decades placed at random inside [1e-6, 1e3]; and a time t
// putting x = max_rate * t log-uniform over [x_lo, x_hi].
struct Case {
  std::vector<double> rates;
  double t = 0.0;
};

Case random_case(util::Rng& rng, double decades, double x_lo, double x_hi) {
  Case c;
  const double lo = rng.uniform(-6.0, 3.0 - decades);
  const std::size_t stages = 1 + rng.below(8);
  for (std::size_t i = 0; i < stages; ++i) {
    if (i > 0 && rng.below(4) == 0) {
      c.rates.push_back(c.rates[rng.below(i)]);  // a repeated rate
    } else {
      c.rates.push_back(std::pow(10.0, lo + rng.uniform(0.0, decades)));
    }
  }
  const double x =
      std::exp(rng.uniform(std::log(x_lo), std::log(x_hi)));
  c.t = x / *std::max_element(c.rates.begin(), c.rates.end());
  return c;
}

TEST(Hypoexp, SingleStageIsExponential) {
  for (double t : {0.5, 1.0, 10.0}) {
    EXPECT_NEAR(hypoexp_cdf({0.2}, t), 1.0 - std::exp(-0.2 * t), 1e-12);
  }
}

TEST(Hypoexp, ZeroAndNegativeTime) {
  EXPECT_EQ(hypoexp_cdf({1.0, 2.0}, 0.0), 0.0);
  EXPECT_EQ(hypoexp_cdf({1.0, 2.0}, -5.0), 0.0);
}

TEST(Hypoexp, TwoStageClosedForm) {
  // For distinct rates a, b: F(t) = 1 - (b e^{-at} - a e^{-bt}) / (b - a).
  double a = 0.3, b = 0.7, t = 2.5;
  double expect =
      1.0 - (b * std::exp(-a * t) - a * std::exp(-b * t)) / (b - a);
  EXPECT_NEAR(hypoexp_cdf({a, b}, t), expect, 1e-12);
}

TEST(Hypoexp, CoefficientsSumToOne) {
  util::Rng rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    std::size_t n = 2 + rng.below(6);
    std::vector<double> rates;
    for (std::size_t i = 0; i < n; ++i) rates.push_back(rng.uniform(0.01, 2.0));
    auto coeff = hypoexp_coefficients(rates);
    double sum = 0;
    for (double c : coeff) sum += c;
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(Hypoexp, CdfPropertiesRandomRates) {
  // Property sweep: valid CDF — within [0,1], nondecreasing, -> 1.
  util::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    std::size_t n = 1 + rng.below(8);
    std::vector<double> rates;
    for (std::size_t i = 0; i < n; ++i) rates.push_back(rng.uniform(0.05, 1.0));
    double prev = 0.0;
    for (double t = 0.0; t <= 200.0; t += 2.0) {
      double f = hypoexp_cdf(rates, t);
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
      EXPECT_GE(f, prev - 1e-9) << "CDF decreased at t=" << t;
      prev = f;
    }
    EXPECT_GT(hypoexp_cdf(rates, 1e5), 0.999);
  }
}

TEST(Hypoexp, EqualRatesAreErlang) {
  // The degenerate case the paper's Eq. 5 cannot express directly: equal
  // rates. Erlang-2 CDF: 1 - e^{-rt}(1 + rt).
  double r = 0.5, t = 3.0;
  double erlang2 = 1.0 - std::exp(-r * t) * (1.0 + r * t);
  EXPECT_NEAR(hypoexp_cdf({r, r}, t), erlang2, 1e-4);
}

TEST(Hypoexp, ManyEqualRatesStillValid) {
  std::vector<double> rates(6, 0.25);
  double prev = 0.0;
  for (double t = 0.0; t < 100.0; t += 1.0) {
    double f = hypoexp_cdf(rates, t);
    EXPECT_GE(f, prev - 1e-9);
    EXPECT_LE(f, 1.0);
    prev = f;
  }
  // Erlang-6 mean = 24; median slightly below. CDF(24) should be ~0.55.
  EXPECT_NEAR(hypoexp_cdf(rates, 24.0), 0.55, 0.05);
}

TEST(Hypoexp, NearEqualRatesNoBlowup) {
  std::vector<double> rates = {0.2, 0.2 * (1 + 1e-13), 0.5};
  double f = hypoexp_cdf(rates, 10.0);
  EXPECT_GE(f, 0.0);
  EXPECT_LE(f, 1.0);
  // Compare against the well-separated approximation.
  double ref = hypoexp_cdf({0.2, 0.2000001, 0.5}, 10.0);
  EXPECT_NEAR(f, ref, 1e-3);
}

TEST(Hypoexp, CoefficientsRejectDuplicates) {
  EXPECT_THROW(hypoexp_coefficients({0.2, 0.2}), std::invalid_argument);
}

TEST(Hypoexp, CdfMatchesCoefficientFormForDistinctRates) {
  // For well-separated rates, uniformization must reproduce Eq. 5/6.
  std::vector<double> rates = {0.1, 0.3, 0.55, 0.9};
  auto a = hypoexp_coefficients(rates);
  for (double t : {1.0, 5.0, 20.0, 80.0}) {
    double closed = 0.0;
    for (std::size_t k = 0; k < rates.size(); ++k) {
      closed += a[k] * (1.0 - std::exp(-rates[k] * t));
    }
    EXPECT_NEAR(hypoexp_cdf(rates, t), closed, 1e-9) << "t=" << t;
  }
}

TEST(Hypoexp, LargeTimeHorizonStable) {
  // x = max_rate * t >> 700 exercises the log-space Poisson weights.
  std::vector<double> rates = {2.0, 0.01, 0.5};
  double f = hypoexp_cdf(rates, 2000.0);
  EXPECT_GT(f, 0.999);
  EXPECT_LE(f, 1.0);
}

TEST(Hypoexp, MonteCarloAgreement) {
  // The CDF must match the empirical distribution of a sum of exponentials.
  std::vector<double> rates = {0.1, 0.25, 0.5, 0.08};
  util::Rng rng(3);
  const int n = 50000;
  for (double t : {10.0, 30.0, 60.0}) {
    int hits = 0;
    for (int i = 0; i < n; ++i) {
      double sum = 0;
      for (double r : rates) sum += rng.exponential(r);
      if (sum <= t) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, hypoexp_cdf(rates, t), 0.01)
        << "t=" << t;
  }
}

TEST(HypoexpQuantile, InvertsCdf) {
  std::vector<double> rates = {0.1, 0.3, 0.07};
  for (double q : {0.1, 0.5, 0.9, 0.99}) {
    double t = hypoexp_quantile(rates, q);
    EXPECT_NEAR(hypoexp_cdf(rates, t), q, 1e-6) << "q=" << q;
  }
}

TEST(HypoexpQuantile, ExponentialClosedForm) {
  // Single stage: quantile = -ln(1-q)/rate.
  double rate = 0.25;
  for (double q : {0.25, 0.5, 0.95}) {
    EXPECT_NEAR(hypoexp_quantile({rate}, q), -std::log(1.0 - q) / rate,
                1e-6);
  }
}

TEST(HypoexpQuantile, MonotoneInQ) {
  std::vector<double> rates = {0.2, 0.2, 0.5};
  double prev = -1.0;
  for (double q = 0.0; q < 0.999; q += 0.05) {
    double t = hypoexp_quantile(rates, q);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(HypoexpQuantile, ZeroAndValidation) {
  EXPECT_EQ(hypoexp_quantile({0.5}, 0.0), 0.0);
  EXPECT_THROW(hypoexp_quantile({0.5}, 1.0), std::invalid_argument);
  EXPECT_THROW(hypoexp_quantile({0.5}, -0.1), std::invalid_argument);
}

TEST(Hypoexp, MeanIsSumOfInverseRates) {
  EXPECT_DOUBLE_EQ(hypoexp_mean({0.5, 0.25}), 6.0);
  EXPECT_THROW(hypoexp_mean({0.5, 0.0}), std::invalid_argument);
}

TEST(Hypoexp, Validation) {
  EXPECT_THROW(hypoexp_cdf({}, 1.0), std::invalid_argument);
  EXPECT_THROW(hypoexp_cdf({0.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(hypoexp_cdf({1.0, -0.5}, 1.0), std::invalid_argument);
}

// Parameterized sweep over stage counts: monotone in rates.
class HypoexpStageSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HypoexpStageSweep, FasterRatesGiveHigherCdf) {
  std::size_t stages = GetParam();
  std::vector<double> slow(stages, 0.1), fast(stages, 0.2);
  for (double t : {5.0, 20.0, 50.0}) {
    EXPECT_GE(hypoexp_cdf(fast, t), hypoexp_cdf(slow, t));
  }
}

TEST_P(HypoexpStageSweep, MoreStagesGiveLowerCdf) {
  std::size_t stages = GetParam();
  std::vector<double> base(stages, 0.15), more(stages + 1, 0.15);
  for (double t : {5.0, 20.0, 50.0}) {
    EXPECT_GE(hypoexp_cdf(base, t), hypoexp_cdf(more, t) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Stages, HypoexpStageSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 11));

// The table-driven evaluator matches the reference bit for bit, up to
// x = 5000, where k runs past 5000 terms.
TEST(HypoexpIdentity, CdfMatchesReferenceBitForBit) {
  util::Rng rng(27);
  for (int trial = 0; trial < 3000; ++trial) {
    const Case c = random_case(rng, 9.0, 1e-3, 5000.0);
    EXPECT_EQ(bits(hypoexp_cdf(c.rates, c.t)),
              bits(reference::hypoexp_cdf(c.rates, c.t)))
        << "trial " << trial << ", " << c.rates.size() << " stages, t="
        << c.t;
  }
}

// The bisection picks its own times (the case's t goes unused) near the
// q-quantile, where x grows with the rate spread; two decades keep x in
// the thousands.
TEST(HypoexpIdentity, QuantileMatchesReferenceBitForBit) {
  util::Rng rng(28);
  for (int trial = 0; trial < 100; ++trial) {
    const Case c = random_case(rng, 2.0, 1.0, 1.0);
    const double q = rng.uniform(0.0, 0.999);
    EXPECT_EQ(bits(hypoexp_quantile(c.rates, q)),
              bits(reference::hypoexp_quantile(c.rates, q)))
        << "trial " << trial << ", q=" << q;
  }
}

// Four threads start at once on cold per-thread tables, each reaching a
// different range of k, and must produce what this thread produces after
// them. (Nothing evaluates before the threads, so no table is warm.)
TEST(HypoexpIdentity, ConcurrentCallsMatchSingleThread) {
  constexpr int kThreads = 4;
  std::vector<std::vector<Case>> cases(kThreads);
  util::Rng rng(29);
  for (int i = 0; i < kThreads; ++i) {
    const double x_hi = 5.0 * std::pow(10.0, i);  // 5, 50, 500, 5000
    for (int j = 0; j < 200; ++j) {
      cases[i].push_back(random_case(rng, 9.0, x_hi / 10.0, x_hi));
    }
  }
  std::vector<std::vector<double>> got(kThreads);
  {
    std::vector<std::jthread> pool;  // joined at the end of this scope
    for (int i = 0; i < kThreads; ++i) {
      pool.emplace_back([&, i] {
        for (const Case& c : cases[i]) {
          got[i].push_back(hypoexp_cdf(c.rates, c.t));
        }
      });
    }
  }
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_EQ(got[i].size(), cases[i].size());
    for (std::size_t j = 0; j < cases[i].size(); ++j) {
      EXPECT_EQ(bits(got[i][j]),
                bits(hypoexp_cdf(cases[i][j].rates, cases[i][j].t)))
          << "thread " << i << ", case " << j;
    }
  }
}

}  // namespace
}  // namespace odtn::analysis
