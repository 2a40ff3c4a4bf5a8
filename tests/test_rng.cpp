// Unit and statistical tests for redund_rng: engines, stream splitting, and
// the exact samplers the simulator depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/engines.hpp"

namespace r = redund::rng;

namespace {

// ------------------------------------------------------------------ engines

TEST(SplitMix64, KnownVectors) {
  // Reference outputs for seed 0 from the canonical C implementation.
  r::SplitMix64 gen(0);
  EXPECT_EQ(gen(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(gen(), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(gen(), 0x06C45D188009454FULL);
}

TEST(Xoshiro256StarStar, DeterministicForFixedSeed) {
  r::Xoshiro256StarStar a(123);
  r::Xoshiro256StarStar b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b()) << "diverged at draw " << i;
  }
}

TEST(Xoshiro256StarStar, DifferentSeedsDiverge) {
  r::Xoshiro256StarStar a(1);
  r::Xoshiro256StarStar b(2);
  int collisions = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++collisions;
  }
  EXPECT_EQ(collisions, 0);
}

TEST(Xoshiro256StarStar, JumpDecorrelates) {
  r::Xoshiro256StarStar base(99);
  r::Xoshiro256StarStar jumped(99);
  jumped.jump();
  // The jumped stream must not equal the base stream's early output.
  int matches = 0;
  for (int i = 0; i < 1000; ++i) {
    if (base() == jumped()) ++matches;
  }
  EXPECT_EQ(matches, 0);
}

TEST(MakeStream, StreamsAreIndependentOfEnumerationOrder) {
  const auto s3_first = r::make_stream(42, 3)();
  (void)r::make_stream(42, 1)();
  const auto s3_second = r::make_stream(42, 3)();
  EXPECT_EQ(s3_first, s3_second);
}

TEST(MakeStream, DistinctStreamsDiffer) {
  std::set<std::uint64_t> first_draws;
  for (std::uint64_t stream = 0; stream < 256; ++stream) {
    auto engine = r::make_stream(7, stream);
    first_draws.insert(engine());
  }
  EXPECT_EQ(first_draws.size(), 256u);
}

// ----------------------------------------------------------------- uniform

TEST(Uniform01, InHalfOpenUnitInterval) {
  r::Xoshiro256StarStar engine(5);
  for (int i = 0; i < 100000; ++i) {
    const double u = r::uniform01(engine);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Uniform01, MeanIsHalf) {
  r::Xoshiro256StarStar engine(6);
  double sum = 0.0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) sum += r::uniform01(engine);
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

TEST(UniformBelow, RespectsBound) {
  r::Xoshiro256StarStar engine(7);
  for (const std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 10000; ++i) {
      ASSERT_LT(r::uniform_below(bound, engine), bound);
    }
  }
}

TEST(UniformBelow, IsUnbiasedOverSmallRange) {
  // Chi-squared uniformity over 7 buckets (7 does not divide 2^64, so a
  // naive modulo would be biased; Lemire rejection must not be).
  r::Xoshiro256StarStar engine(8);
  constexpr std::uint64_t kBuckets = 7;
  constexpr int kDraws = 700000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[r::uniform_below(kBuckets, engine)];
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  // 6 dof; 99.9th percentile ~ 22.46.
  EXPECT_LT(chi2, 22.46);
}

// ---------------------------------------------------------------- binomial

class BinomialMoments
    : public ::testing::TestWithParam<std::pair<std::int64_t, double>> {};

TEST_P(BinomialMoments, MeanAndVarianceMatch) {
  const auto [n, p] = GetParam();
  r::Xoshiro256StarStar engine(1234);
  constexpr int kDraws = 60000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const auto x = static_cast<double>(r::binomial(n, p, engine));
    ASSERT_GE(x, 0.0);
    ASSERT_LE(x, static_cast<double>(n));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  const double expected_mean = static_cast<double>(n) * p;
  const double expected_var = expected_mean * (1.0 - p);
  // 5-sigma bands on the sample mean.
  const double mean_tol = 5.0 * std::sqrt(expected_var / kDraws) + 1e-9;
  EXPECT_NEAR(mean, expected_mean, mean_tol) << "n=" << n << " p=" << p;
  EXPECT_NEAR(var, expected_var, 0.05 * expected_var + 0.01)
      << "n=" << n << " p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BinomialMoments,
    ::testing::Values(std::pair<std::int64_t, double>{10, 0.5},
                      std::pair<std::int64_t, double>{100, 0.05},
                      std::pair<std::int64_t, double>{1000, 0.001},
                      std::pair<std::int64_t, double>{1000, 0.25},
                      std::pair<std::int64_t, double>{50, 0.9},
                      std::pair<std::int64_t, double>{7, 0.999}));

TEST(Binomial, EdgeCases) {
  r::Xoshiro256StarStar engine(1);
  EXPECT_EQ(r::binomial(0, 0.5, engine), 0);
  EXPECT_EQ(r::binomial(10, 0.0, engine), 0);
  EXPECT_EQ(r::binomial(10, 1.0, engine), 10);
}

// ----------------------------------------------------------- hypergeometric

TEST(Hypergeometric, SupportBounds) {
  r::Xoshiro256StarStar engine(22);
  constexpr std::int64_t kPop = 50;
  constexpr std::int64_t kMarked = 20;
  constexpr std::int64_t kSample = 40;
  const std::int64_t lo = std::max<std::int64_t>(0, kSample + kMarked - kPop);
  for (int i = 0; i < 20000; ++i) {
    const auto x = r::hypergeometric(kPop, kMarked, kSample, engine);
    ASSERT_GE(x, lo);
    ASSERT_LE(x, std::min(kMarked, kSample));
  }
}

TEST(Hypergeometric, MeanMatchesTheory) {
  r::Xoshiro256StarStar engine(23);
  constexpr std::int64_t kPop = 1000;
  constexpr std::int64_t kMarked = 300;
  constexpr std::int64_t kSample = 100;
  constexpr int kDraws = 50000;
  double sum = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    sum += static_cast<double>(
        r::hypergeometric(kPop, kMarked, kSample, engine));
  }
  const double expected = static_cast<double>(kSample) * kMarked / kPop;  // 30.
  EXPECT_NEAR(sum / kDraws, expected, 0.15);
}

TEST(Hypergeometric, DegenerateCases) {
  r::Xoshiro256StarStar engine(24);
  EXPECT_EQ(r::hypergeometric(10, 0, 5, engine), 0);
  EXPECT_EQ(r::hypergeometric(10, 10, 5, engine), 5);
  EXPECT_EQ(r::hypergeometric(10, 4, 0, engine), 0);
  EXPECT_EQ(r::hypergeometric(10, 4, 10, engine), 4);
}

TEST(Hypergeometric, VarianceMatchesTheory) {
  r::Xoshiro256StarStar engine(25);
  constexpr std::int64_t kPop = 200;
  constexpr std::int64_t kMarked = 50;
  constexpr std::int64_t kSample = 60;
  constexpr int kDraws = 60000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const auto x = static_cast<double>(
        r::hypergeometric(kPop, kMarked, kSample, engine));
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sum_sq / kDraws - mean * mean;
  const double n = kSample;
  const double expected_var = n * (50.0 / 200.0) * (150.0 / 200.0) *
                              (200.0 - n) / (200.0 - 1.0);
  EXPECT_NEAR(var, expected_var, 0.05 * expected_var);
}

TEST(Hypergeometric, DrawsArePinned) {
  // Exact draws on make_stream(7, i), recorded once: any change to the
  // sampler's arithmetic (log-gamma source, operand order, walk order)
  // shows here as a moved draw. Covers the trivial lo >= hi exit, mode
  // hits, long two-sided walks, log-gamma arguments on each side of 2^16,
  // and populations near plan_verify's N = 10^6 outer deals.
  struct Case {
    std::int64_t population, marked, sample, draw;
  };
  constexpr std::array<Case, 24> kCases{{
      {10, 0, 5, 0},  // lo == hi
      {10, 10, 3, 3},  // lo == hi
      {10, 4, 10, 4},  // lo == hi
      {5, 3, 0, 0},  // lo == hi
      {20, 1, 1, 0},  // mode hit
      {30, 2, 5, 2},
      {50, 10, 10, 1},
      {1000, 3, 2, 0},  // mode hit
      {1000, 500, 500, 252},
      {100000, 50000, 50000, 25024},
      {65535, 30000, 20000, 9063},
      {65536, 30000, 20000, 9112},
      {65537, 30000, 20000, 9075},
      {65535, 65534, 100, 100},  // mode hit
      {131072, 65535, 65536, 32819},
      {131072, 65536, 65537, 32864},
      {131073, 65537, 65535, 32848},
      {200000, 65535, 1000, 325},
      {1400000, 700000, 140000, 70282},
      {1399999, 1000000, 140000, 100145},
      {1400001, 3000, 140000, 317},
      {1400000, 1300000, 1200000, 1114356},
      {1400000, 140000, 1399000, 139908},
      {1400000, 50, 140000, 10},
  }};
  for (std::size_t i = 0; i < kCases.size(); ++i) {
    const Case& c = kCases[i];
    auto engine = r::make_stream(7, i);
    EXPECT_EQ(r::hypergeometric(c.population, c.marked, c.sample, engine),
              c.draw)
        << "case " << i;
  }
}

// ------------------------------------------------------------------ shuffle

TEST(Shuffle, ProducesPermutation) {
  r::Xoshiro256StarStar engine(40);
  std::vector<int> items(100);
  std::iota(items.begin(), items.end(), 0);
  r::shuffle(std::span<int>(items), engine);
  std::vector<int> sorted = items;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Shuffle, FirstPositionIsUniform) {
  r::Xoshiro256StarStar engine(41);
  constexpr int kItems = 5;
  constexpr int kTrials = 50000;
  std::array<int, kItems> counts{};
  for (int t = 0; t < kTrials; ++t) {
    std::array<int, kItems> items = {0, 1, 2, 3, 4};
    r::shuffle(std::span<int>(items), engine);
    ++counts[static_cast<std::size_t>(items[0])];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.2, 0.01);
  }
}

TEST(SampleWithoutReplacement, DistinctAndInRange) {
  r::Xoshiro256StarStar engine(42);
  const auto sample = r::sample_without_replacement(100, 30, engine);
  ASSERT_EQ(sample.size(), 30u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto v : sample) EXPECT_LT(v, 100u);
}

TEST(SampleWithoutReplacement, KClampedToN) {
  r::Xoshiro256StarStar engine(43);
  const auto sample = r::sample_without_replacement(5, 50, engine);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(FirstDraw, BitIdenticalToConstructedStreamEngine) {
  // The closed form must reproduce make_stream(...)() exactly — it is
  // the determinism contract behind every fast-path keyed coin. Sweep a
  // grid of seeds and streams including adversarial values (0, all-ones,
  // the golden-ratio increment itself).
  constexpr std::uint64_t kSeeds[] = {
      0ULL, 1ULL, ~0ULL, 0x9E3779B97F4A7C15ULL, 0xA57C0DEULL,
      0xA0D17D15EEDULL, 0xDEADBEEFCAFEF00DULL};
  constexpr std::uint64_t kStreams[] = {0ULL, 1ULL, 2ULL, 63ULL, 64ULL,
                                        12345ULL, ~0ULL - 1, ~0ULL};
  for (const std::uint64_t seed : kSeeds) {
    for (const std::uint64_t stream : kStreams) {
      auto engine = r::make_stream(seed, stream);
      ASSERT_EQ(r::first_draw(seed, stream), engine())
          << "seed=" << seed << " stream=" << stream;
    }
  }
  // Dense sweep over consecutive streams, the runtime's actual pattern.
  for (std::uint64_t stream = 0; stream < 4096; ++stream) {
    auto engine = r::make_stream(0x5EEDFACEULL, stream);
    ASSERT_EQ(r::first_draw(0x5EEDFACEULL, stream), engine());
  }
}

TEST(FirstDraw, FirstUniform01AndBernoulliMatchSamplers) {
  for (std::uint64_t stream = 0; stream < 512; ++stream) {
    auto engine = r::make_stream(0xD40F0FFULL, stream);
    const double expected = r::uniform01(engine);
    ASSERT_EQ(r::first_uniform01(0xD40F0FFULL, stream), expected);
    auto coin = r::make_stream(0xD40F0FFULL, stream);
    ASSERT_EQ(r::first_bernoulli(0.3, 0xD40F0FFULL, stream),
              r::bernoulli(0.3, coin));
  }
}

TEST(SampleWithoutReplacement, MembershipIsUniform) {
  // Each of 10 items should appear in a 3-subset with probability 3/10.
  r::Xoshiro256StarStar engine(44);
  constexpr int kTrials = 60000;
  std::array<int, 10> counts{};
  for (int t = 0; t < kTrials; ++t) {
    for (const auto v : r::sample_without_replacement(10, 3, engine)) {
      ++counts[v];
    }
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.3, 0.015);
  }
}

}  // namespace
