// Unit tests for redund_stats: Welford accumulators, merge correctness,
// and confidence intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/engines.hpp"
#include "stats/accumulator.hpp"

namespace s = redund::stats;

namespace {

TEST(Accumulator, EmptyState) {
  s::Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_EQ(acc.sem(), 0.0);
}

TEST(Accumulator, KnownMoments) {
  s::Accumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  // Sample variance with n-1: sum sq dev = 32, / 7.
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, SingleObservationHasZeroVariance) {
  s::Accumulator acc;
  acc.add(3.5);
  EXPECT_EQ(acc.variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
}

TEST(Accumulator, MergeEqualsSequential) {
  std::vector<double> data;
  redund::rng::Xoshiro256StarStar engine(11);
  for (int i = 0; i < 1000; ++i) {
    data.push_back(redund::rng::uniform01(engine) * 10.0 - 3.0);
  }
  s::Accumulator sequential;
  for (const double x : data) sequential.add(x);

  s::Accumulator left;
  s::Accumulator right;
  for (std::size_t i = 0; i < data.size(); ++i) {
    (i < 300 ? left : right).add(data[i]);
  }
  left.merge(right);

  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_NEAR(left.mean(), sequential.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), sequential.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), sequential.min());
  EXPECT_DOUBLE_EQ(left.max(), sequential.max());
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  s::Accumulator acc;
  acc.add(1.0);
  acc.add(2.0);
  const double mean_before = acc.mean();
  s::Accumulator empty;
  acc.merge(empty);
  EXPECT_DOUBLE_EQ(acc.mean(), mean_before);
  EXPECT_EQ(acc.count(), 2u);

  s::Accumulator other;
  other.merge(acc);  // Empty.merge(nonempty) adopts the non-empty state.
  EXPECT_DOUBLE_EQ(other.mean(), mean_before);
}

TEST(Accumulator, NumericallyStableAtLargeOffset) {
  // Welford's point: observations ~1e9 with tiny variance.
  s::Accumulator acc;
  for (int i = 0; i < 1000; ++i) {
    acc.add(1e9 + (i % 2 == 0 ? 0.5 : -0.5));
  }
  EXPECT_NEAR(acc.variance(), 0.25 * 1000.0 / 999.0, 1e-6);
}

TEST(MeanConfidence, CoversTrueMean) {
  s::Accumulator acc;
  redund::rng::Xoshiro256StarStar engine(12);
  for (int i = 0; i < 10000; ++i) {
    acc.add(redund::rng::uniform01(engine));
  }
  const s::Interval ci = s::mean_confidence(acc, 3.29);  // ~99.9%.
  EXPECT_TRUE(ci.contains(0.5)) << "[" << ci.lo << ", " << ci.hi << "]";
  EXPECT_GT(ci.width(), 0.0);
  EXPECT_LT(ci.width(), 0.05);
}

TEST(WilsonInterval, DegenerateInputs) {
  const s::Interval empty = s::wilson_interval(0, 0);
  EXPECT_EQ(empty.lo, 0.0);
  EXPECT_EQ(empty.hi, 1.0);

  const s::Interval all = s::wilson_interval(100, 100);
  EXPECT_GT(all.lo, 0.9);
  EXPECT_LE(all.hi, 1.0 + 1e-12);

  const s::Interval none = s::wilson_interval(0, 100);
  EXPECT_GE(none.lo, -1e-12);
  EXPECT_LT(none.hi, 0.1);
}

TEST(WilsonInterval, NarrowerWithMoreTrials) {
  const auto narrow = s::wilson_interval(5000, 10000);
  const auto wide = s::wilson_interval(50, 100);
  EXPECT_LT(narrow.width(), wide.width());
}

TEST(BernoulliCounter, ProportionAndMerge) {
  s::BernoulliCounter a;
  for (int i = 0; i < 30; ++i) a.add(i % 3 == 0);  // 10 of 30.
  EXPECT_EQ(a.trials(), 30u);
  EXPECT_EQ(a.successes(), 10u);
  EXPECT_NEAR(a.proportion(), 1.0 / 3.0, 1e-12);

  s::BernoulliCounter b;
  for (int i = 0; i < 10; ++i) b.add(true);
  a.merge(b);
  EXPECT_EQ(a.trials(), 40u);
  EXPECT_EQ(a.successes(), 20u);
}

TEST(BernoulliCounter, ConfidenceCoversTruth) {
  s::BernoulliCounter counter;
  redund::rng::Xoshiro256StarStar engine(13);
  for (int i = 0; i < 20000; ++i) {
    counter.add(redund::rng::bernoulli(0.3, engine));
  }
  EXPECT_TRUE(counter.confidence(3.29).contains(0.3));
}

}  // namespace
