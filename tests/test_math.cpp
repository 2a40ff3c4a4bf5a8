// Unit tests for redund_math: compensated summation, binomials, truncated
// Poisson machinery, and root finding.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <thread>
#include <vector>

#include "math/binomial.hpp"
#include "math/poisson.hpp"
#include "math/roots.hpp"
#include "math/summation.hpp"

namespace m = redund::math;

namespace {

// ---------------------------------------------------------------- summation

TEST(NeumaierSum, EmptyIsZero) {
  m::NeumaierSum acc;
  EXPECT_EQ(acc.value(), 0.0);
}

TEST(NeumaierSum, SumsSmallSequencesExactly) {
  m::NeumaierSum acc;
  for (int i = 1; i <= 100; ++i) acc.add(static_cast<double>(i));
  EXPECT_EQ(acc.value(), 5050.0);
}

TEST(NeumaierSum, RecoversCancellationNaiveSummationLoses) {
  // Classic Neumaier showcase: 1 + 1e100 + 1 - 1e100 == 2.
  m::NeumaierSum acc;
  acc.add(1.0);
  acc.add(1e100);
  acc.add(1.0);
  acc.add(-1e100);
  EXPECT_EQ(acc.value(), 2.0);

  double naive = 1.0;
  naive += 1e100;
  naive += 1.0;
  naive += -1e100;
  EXPECT_NE(naive, 2.0);  // Demonstrates the accumulator is load-bearing.
}

TEST(NeumaierSum, TinyTermsAfterHugeTermSurvive) {
  // ulp(1e15) = 0.125, so 1e15 + 1 is exactly representable and the
  // compensated sum must land on it; naive summation drops every 0.001.
  m::NeumaierSum acc;
  acc.add(1e15);
  for (int i = 0; i < 1000; ++i) acc.add(0.001);
  EXPECT_NEAR(acc.value() - 1e15, 1.0, 1e-9);
}

TEST(NeumaierSum, ResetClearsState) {
  m::NeumaierSum acc(42.0);
  acc.add(1.0);
  acc.reset();
  EXPECT_EQ(acc.value(), 0.0);
}

// ---------------------------------------------------------------- binomial

TEST(Binomial, MatchesHandValues) {
  EXPECT_DOUBLE_EQ(m::binomial(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m::binomial(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(m::binomial(10, 5), 252.0);
  EXPECT_DOUBLE_EQ(m::binomial(52, 5), 2598960.0);
}

TEST(Binomial, OutOfRangeIsZero) {
  EXPECT_DOUBLE_EQ(m::binomial(3, 5), 0.0);
  EXPECT_DOUBLE_EQ(m::binomial(-1, 0), 0.0);
  EXPECT_DOUBLE_EQ(m::binomial(3, -1), 0.0);
}

TEST(Binomial, SymmetryProperty) {
  for (std::int64_t n = 1; n <= 40; ++n) {
    for (std::int64_t k = 0; k <= n; ++k) {
      EXPECT_DOUBLE_EQ(m::binomial(n, k), m::binomial(n, n - k))
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(Binomial, PascalRecurrenceProperty) {
  for (std::int64_t n = 2; n <= 50; ++n) {
    for (std::int64_t k = 1; k < n; ++k) {
      const double lhs = m::binomial(n, k);
      const double rhs = m::binomial(n - 1, k - 1) + m::binomial(n - 1, k);
      EXPECT_NEAR(lhs, rhs, 1e-9 * lhs) << "n=" << n << " k=" << k;
    }
  }
}

TEST(BinomialExact, AgreesWithDoubleVersionWhereDefined) {
  for (std::int64_t n = 0; n <= 60; ++n) {
    for (std::int64_t k = 0; k <= n; ++k) {
      const auto exact = m::binomial_exact(n, k);
      ASSERT_TRUE(exact.has_value()) << "n=" << n << " k=" << k;
      EXPECT_NEAR(m::binomial(n, k), static_cast<double>(*exact),
                  1e-6 * static_cast<double>(*exact));
    }
  }
}

TEST(BinomialExact, ReportsOverflow) {
  // C(200, 100) ~ 9e58 >> 2^64.
  EXPECT_FALSE(m::binomial_exact(200, 100).has_value());
  // C(67, 33) overflows uint64; C(62, 31) does not.
  EXPECT_TRUE(m::binomial_exact(62, 31).has_value());
}

TEST(LogBinomial, LargeArgumentsStayFinite) {
  const double log_c = m::log_binomial(500, 250);
  EXPECT_TRUE(std::isfinite(log_c));
  EXPECT_GT(log_c, 0.0);
  // Stirling check: log C(2n, n) ~ 2n ln 2 - 0.5 ln(pi n).
  const double expected =
      500.0 * std::log(2.0) - 0.5 * std::log(std::acos(-1.0) * 250.0);
  EXPECT_NEAR(log_c, expected, 0.01);
}

TEST(Factorial, TableAndLgammaAgreeAtBoundary) {
  EXPECT_DOUBLE_EQ(m::factorial(0), 1.0);
  EXPECT_DOUBLE_EQ(m::factorial(5), 120.0);
  EXPECT_DOUBLE_EQ(m::factorial(20), 2432902008176640000.0);
  EXPECT_NEAR(m::factorial(23) / (23.0 * m::factorial(22)), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(m::factorial(-1), 0.0);
}

TEST(LogGammaInt, MatchesLogGammaBitwise) {
  // Table entries (below 2^16) and the log_gamma fallback above it must
  // both return exactly log_gamma(n + 1): the sampler's draws depend on it.
  for (const std::int64_t n :
       {0, 1, 22, 23, 65535, 65536, 65537, 1'400'000}) {
    EXPECT_EQ(m::log_gamma_int(n), m::log_gamma(static_cast<double>(n) + 1.0))
        << "n=" << n;
  }
}

TEST(LogGammaInt, ConcurrentFirstUse) {
  // Four threads race to the table's first use; every one must read the
  // same values (under TSan, this also checks the build is race-free).
  constexpr std::int64_t kEnd = std::int64_t{1} << 16;
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<double>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&values = seen[i]] {
      values.reserve(static_cast<std::size_t>(kEnd) + 1);
      for (std::int64_t n = 0; n <= kEnd; ++n) {
        values.push_back(m::log_gamma_int(n));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], seen[0]) << "thread " << i;
  }
  EXPECT_EQ(seen[0][65535], m::log_gamma(65536.0));
}

TEST(LogFactorial, MonotoneAndConsistent) {
  for (std::int64_t n = 1; n <= 100; ++n) {
    EXPECT_GT(m::log_factorial(n), m::log_factorial(n - 1) - 1e-12);
    EXPECT_NEAR(m::log_factorial(n),
                m::log_factorial(n - 1) + std::log(static_cast<double>(n)),
                1e-9);
  }
}

// ---------------------------------------------------------------- poisson

TEST(Poisson, PmfSumsToOne) {
  for (const double gamma : {0.1, 0.6931, 2.0, 10.0, 30.0}) {
    m::NeumaierSum total;
    for (std::int64_t i = 0; i <= 400; ++i) {
      total.add(m::poisson_pmf(gamma, i));
    }
    EXPECT_NEAR(total.value(), 1.0, 1e-12) << "gamma=" << gamma;
  }
}

TEST(Poisson, UpperTailMatchesDirectSum) {
  const double gamma = 1.5;
  for (std::int64_t mth = 0; mth <= 20; ++mth) {
    m::NeumaierSum direct;
    for (std::int64_t i = mth; i <= 300; ++i) {
      direct.add(m::poisson_pmf(gamma, i));
    }
    EXPECT_NEAR(m::poisson_upper_tail(gamma, mth), direct.value(), 1e-13)
        << "m=" << mth;
  }
}

TEST(Poisson, DeepTailIsAccurate) {
  // P[X >= 60] for gamma = 2: far in the tail, requires direct summation.
  const double tail = m::poisson_upper_tail(2.0, 60);
  EXPECT_GT(tail, 0.0);
  EXPECT_LT(tail, 1e-40);
  // Ratio test: tail(m)/pmf(m) -> 1/(1 - gamma/m) roughly; just check order.
  EXPECT_NEAR(tail / m::poisson_pmf(2.0, 60), 1.0, 0.05);
}

TEST(ZeroTruncatedPoisson, NormalizesAndExcludesZero) {
  const double gamma = 0.6931471805599453;  // ln 2 (Balanced at eps = 1/2).
  EXPECT_DOUBLE_EQ(m::zero_truncated_poisson_pmf(gamma, 0), 0.0);
  m::NeumaierSum total;
  for (std::int64_t i = 1; i <= 200; ++i) {
    total.add(m::zero_truncated_poisson_pmf(gamma, i));
  }
  EXPECT_NEAR(total.value(), 1.0, 1e-12);
}

TEST(TruncatedPoisson, GeneralizesZeroTruncation) {
  const double gamma = 0.6931;
  for (std::int64_t i = 1; i <= 30; ++i) {
    EXPECT_NEAR(m::truncated_poisson_pmf(gamma, 1, i),
                m::zero_truncated_poisson_pmf(gamma, i), 1e-14);
  }
}

TEST(TruncatedPoisson, NormalizesForEveryTruncationPoint) {
  const double gamma = 0.6931;
  for (std::int64_t mth = 1; mth <= 8; ++mth) {
    m::NeumaierSum total;
    for (std::int64_t i = mth; i <= 300; ++i) {
      total.add(m::truncated_poisson_pmf(gamma, mth, i));
    }
    EXPECT_NEAR(total.value(), 1.0, 1e-9) << "m=" << mth;
  }
}

TEST(TruncatedPoissonMean, MatchesPaperSection7Anchors) {
  // Section 7: minimum-multiplicity RFs at eps = 1/2 (gamma = ln 2) are the
  // truncated Poisson means: 2.259, 3.192, 4.152 for m = 2, 3, 4.
  const double gamma = std::log(2.0);
  EXPECT_NEAR(m::truncated_poisson_mean(gamma, 1), 2.0 * std::log(2.0), 1e-12);
  EXPECT_NEAR(m::truncated_poisson_mean(gamma, 2), 2.259, 5e-4);
  EXPECT_NEAR(m::truncated_poisson_mean(gamma, 3), 3.192, 5e-3);
  EXPECT_NEAR(m::truncated_poisson_mean(gamma, 4), 4.152, 5e-3);
}

TEST(TruncatedPoissonMean, MatchesDirectSeries) {
  const double gamma = 1.8;
  for (std::int64_t mth = 1; mth <= 10; ++mth) {
    m::NeumaierSum weighted;
    for (std::int64_t i = mth; i <= 400; ++i) {
      weighted.add(static_cast<double>(i) *
                   m::truncated_poisson_pmf(gamma, mth, i));
    }
    EXPECT_NEAR(m::truncated_poisson_mean(gamma, mth), weighted.value(), 1e-9)
        << "m=" << mth;
  }
}

TEST(PoissonWeightedTail, IdentityAgainstBruteForce) {
  const double gamma = 0.9;
  for (std::int64_t mth = 1; mth <= 12; ++mth) {
    m::NeumaierSum brute;
    for (std::int64_t i = mth; i <= 300; ++i) {
      brute.add(static_cast<double>(i) * m::poisson_pmf(gamma, i));
    }
    EXPECT_NEAR(m::poisson_weighted_tail(gamma, mth), brute.value(), 1e-13);
  }
}

// ---------------------------------------------------------------- roots

TEST(Bisect, FindsSqrtTwo) {
  const auto result =
      m::bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->converged);
  EXPECT_NEAR(result->x, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, RejectsNonBracketingInterval) {
  EXPECT_FALSE(m::bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0)
                   .has_value());
}

TEST(Brent, FindsSqrtTwoFasterThanBisection) {
  const auto brent = m::brent([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  const auto bisect =
      m::bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  ASSERT_TRUE(brent.has_value());
  ASSERT_TRUE(bisect.has_value());
  EXPECT_TRUE(brent->converged);
  EXPECT_NEAR(brent->x, std::sqrt(2.0), 1e-10);
  EXPECT_LT(brent->iterations, bisect->iterations);
}

TEST(Brent, HandlesFlatRegionsAndSteepness) {
  // f has a root at x = 0.1 with steep curvature.
  const auto result = m::brent(
      [](double x) { return std::tanh(50.0 * (x - 0.1)); }, -1.0, 1.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->x, 0.1, 1e-8);
}

TEST(Brent, EndpointRootIsAccepted) {
  const auto result = m::brent([](double x) { return x; }, 0.0, 1.0);
  ASSERT_TRUE(result.has_value());
  EXPECT_NEAR(result->x, 0.0, 1e-10);
}

struct RootCase {
  double target;
};

class BrentMonotoneSweep : public ::testing::TestWithParam<double> {};

TEST_P(BrentMonotoneSweep, InvertsLogCostCurve) {
  // Inverting RF(eps) = -log1p(-eps)/eps, the Balanced cost curve, across a
  // sweep of target factors — the planner's actual use of Brent.
  const double target = GetParam();
  const auto result = m::brent(
      [target](double eps) { return -std::log1p(-eps) / eps - target; },
      1e-9, 1.0 - 1e-12);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->converged);
  EXPECT_NEAR(-std::log1p(-result->x) / result->x, target, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(CostTargets, BrentMonotoneSweep,
                         ::testing::Values(1.01, 1.1, 1.3863, 2.0, 3.0, 4.6052));

}  // namespace
