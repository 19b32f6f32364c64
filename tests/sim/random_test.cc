#include "sim/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace reflex::sim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NamedStreamsAreIndependent) {
  Rng a(7, "flash");
  Rng b(7, "network");
  EXPECT_NE(a.Next(), b.Next());
  // Same (seed, name) pair reproduces.
  Rng c(7, "flash");
  Rng d(7, "flash");
  EXPECT_EQ(c.Next(), d.Next());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(5);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextBoundedCoversRange) {
  Rng rng(11);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.NextBounded(10)];
  for (int count : seen) {
    EXPECT_GT(count, 800);  // expected 1000 each
    EXPECT_LT(count, 1200);
  }
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(17);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(RngTest, LognormalMedianConverges) {
  Rng rng(19);
  const int n = 100001;
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) v[i] = rng.NextLognormal(100.0, 0.3);
  std::nth_element(v.begin(), v.begin() + n / 2, v.end());
  EXPECT_NEAR(v[n / 2], 100.0, 2.5);
}

TEST(RngTest, LognormalZeroSigmaIsExact) {
  Rng rng(23);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(rng.NextLognormal(140.0, 0.0), 140.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(29);
  double sum = 0, sum_sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.8);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.8, 0.01);
}

TEST(RngTest, ZipfStaysInRangeAndSkews) {
  Rng rng(37);
  const uint64_t n = 1000;
  int64_t low_ranks = 0;
  for (int i = 0; i < 50000; ++i) {
    uint64_t k = rng.NextZipf(n, 0.99);
    ASSERT_LT(k, n);
    if (k < 10) ++low_ranks;
  }
  // Zipf(0.99): the top 10 of 1000 ranks attract a large share.
  EXPECT_GT(low_ranks, 15000);
}

/**
 * NextZipf as it was before its setup constants were kept across
 * draws: every draw recomputes them. Draws its uniforms from `rng`.
 */
uint64_t ReferenceZipf(Rng& rng, uint64_t n, double theta) {
  auto helper1 = [](double x) {
    if (std::abs(x) > 1e-8) return std::log1p(x) / x;
    return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25));
  };
  auto helper2 = [](double x) {
    if (std::abs(x) > 1e-8) return std::expm1(x) / x;
    return 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + x * 0.25));
  };
  auto h_integral = [&](double x) {
    const double log_x = std::log(x);
    return helper2((1.0 - theta) * log_x) * log_x;
  };
  auto h = [&](double x) { return std::exp(-theta * std::log(x)); };
  auto h_integral_inverse = [&](double x) {
    double t = x * (1.0 - theta);
    if (t < -1.0) t = -1.0;
    return std::exp(helper1(t) * x);
  };
  const double h_integral_x1 = h_integral(1.5) - 1.0;
  const double h_integral_n = h_integral(static_cast<double>(n) + 0.5);
  const double s = 2.0 - h_integral_inverse(h_integral(2.5) - h(2.0));
  for (;;) {
    const double u =
        h_integral_n + rng.NextDouble() * (h_integral_x1 - h_integral_n);
    const double x = h_integral_inverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n)) k = static_cast<double>(n);
    if (k - x <= s || u >= h_integral(k + 0.5) - h(k)) {
      return static_cast<uint64_t>(k) - 1;
    }
  }
}

TEST(RngTest, ZipfKeepsItsConstantsAcrossAlternatingPairs) {
  // One stream alternating two (n, theta) pairs, runs of varying
  // length, so the kept constants are recomputed on every switch and
  // reused within a run. Every draw must equal the formula's.
  Rng rng(53);
  Rng reference(53);
  const uint64_t ns[2] = {1000, 262144};
  const double thetas[2] = {0.99, 1.2};
  for (int i = 0; i < 20000; ++i) {
    const int pair = (i / (1 + i % 7)) % 2;
    ASSERT_EQ(rng.NextZipf(ns[pair], thetas[pair]),
              ReferenceZipf(reference, ns[pair], thetas[pair]))
        << "draw " << i;
  }
  // Same n, other theta: the constants depend on both.
  for (int i = 0; i < 1000; ++i) {
    const double theta = i % 2 == 0 ? 0.5 : 0.99;
    ASSERT_EQ(rng.NextZipf(1000, theta),
              ReferenceZipf(reference, 1000, theta))
        << "draw " << i;
  }
  EXPECT_EQ(rng.Next(), reference.Next()) << "streams stay in step";
}

TEST(RngTest, ZipfSmallN) {
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(rng.NextZipf(1, 1.2), 0u);
  }
}

}  // namespace
}  // namespace reflex::sim
