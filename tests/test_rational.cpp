// Exact-arithmetic tests: the Rational type itself, then the paper's
// algebraic identities re-verified with zero floating-point involvement.
#include <gtest/gtest.h>

#include "rational.hpp"

using redund::math::Rational;
using redund::math::rational_binomial;

namespace {

// ----------------------------------------------------------------- basics

TEST(Rational, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.numerator(), 3);
  EXPECT_EQ(r.denominator(), 4);

  const Rational negative(3, -9);
  EXPECT_EQ(negative.numerator(), -1);
  EXPECT_EQ(negative.denominator(), 3);

  const Rational zero(0, 7);
  EXPECT_EQ(zero.numerator(), 0);
  EXPECT_EQ(zero.denominator(), 1);

  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, Arithmetic) {
  const Rational half(1, 2);
  const Rational third(1, 3);
  EXPECT_EQ(half + third, Rational(5, 6));
  EXPECT_EQ(half - third, Rational(1, 6));
  EXPECT_EQ(half * third, Rational(1, 6));
  EXPECT_EQ(half / third, Rational(3, 2));
  EXPECT_THROW(half / Rational(0), std::invalid_argument);
}

TEST(Rational, CompoundOperatorsAndComparisons) {
  Rational r(1, 4);
  r += Rational(1, 4);
  r *= 2;
  EXPECT_EQ(r, Rational(1));
  EXPECT_TRUE(r.is_integer());
  EXPECT_LT(Rational(2, 3), Rational(3, 4));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_EQ(Rational(10, 5), Rational(2));
}

TEST(Rational, ToStringAndDouble) {
  EXPECT_EQ(Rational(3, 4).to_string(), "3/4");
  EXPECT_EQ(Rational(5).to_string(), "5");
  EXPECT_DOUBLE_EQ(Rational(1, 2).to_double(), 0.5);
}

TEST(Rational, OverflowIsAnErrorNotWraparound) {
  const Rational huge(std::numeric_limits<std::int64_t>::max() / 2, 1);
  EXPECT_THROW(huge * huge, std::overflow_error);
  EXPECT_THROW(huge + huge + huge, std::overflow_error);
}

TEST(Rational, CrossReductionDelaysOverflow) {
  // (2^40 / 3) * (3 / 2^40) = 1 — must succeed despite large intermediates.
  const Rational a(std::int64_t{1} << 40, 3);
  const Rational b(3, std::int64_t{1} << 40);
  EXPECT_EQ(a * b, Rational(1));
}

TEST(RationalBinomial, MatchesSmallTable) {
  EXPECT_EQ(rational_binomial(0, 0), Rational(1));
  EXPECT_EQ(rational_binomial(5, 2), Rational(10));
  EXPECT_EQ(rational_binomial(26, 13), Rational(10400600));
  EXPECT_EQ(rational_binomial(4, 7), Rational(0));
  EXPECT_TRUE(rational_binomial(30, 15).is_integer());
}

// ------------------------------------ paper identities, exact arithmetic

TEST(ExactPaper, Proposition1RelaxedOptimumIdentities) {
  // For rational eps and N: x_1 = 2N(1-eps)/(2-eps), x_2 = N eps/(2-eps).
  // Exactly: x_1 + x_2 = N; C_1 holds with equality (2 x_2 = r x_1 with
  // r = eps/(1-eps)); total = x_1 + 2 x_2 = 2N/(2-eps).
  const Rational n(100000);
  for (const Rational eps : {Rational(1, 2), Rational(3, 4), Rational(2, 3),
                             Rational(99, 100), Rational(1, 10)}) {
    const Rational one(1);
    const Rational two(2);
    const Rational x1 = two * n * (one - eps) / (two - eps);
    const Rational x2 = n * eps / (two - eps);
    const Rational ratio = eps / (one - eps);

    EXPECT_EQ(x1 + x2, n) << eps.to_string();
    EXPECT_EQ(two * x2, ratio * x1) << eps.to_string();
    EXPECT_EQ(x1 + two * x2, two * n / (two - eps)) << eps.to_string();
  }
}

TEST(ExactPaper, Fact1VertexSatisfiesConstraintsWithEquality) {
  // eps = 1/2 (ratio = 1), m >= 6, D = 3m^2 - m + 2:
  //   x_1 = 2Nm^2/D, x_2 = Nm(m-1)/D, x_m = 2N/D.
  // Exactly: C_0 equality (x_1 + x_2 + x_m = N);
  //          C_1 equality (2 x_2 + m x_m = x_1);
  //          C_2 equality (C(m,2) x_m = x_2);
  //          C_k strict for 3 <= k < m (x_k = 0, mass above positive);
  //          total = x_1 + 2 x_2 + m x_m = 4 m^2 N / D.
  const Rational n(100000);
  for (const std::int64_t m : {std::int64_t{6}, std::int64_t{10},
                               std::int64_t{20}, std::int64_t{26}}) {
    const Rational rm(m);
    const Rational d = Rational(3) * rm * rm - rm + Rational(2);
    const Rational x1 = Rational(2) * n * rm * rm / d;
    const Rational x2 = n * rm * (rm - Rational(1)) / d;
    const Rational xm = Rational(2) * n / d;

    EXPECT_EQ(x1 + x2 + xm, n) << m;
    EXPECT_EQ(Rational(2) * x2 + rm * xm, x1) << m;
    EXPECT_EQ(rational_binomial(m, 2) * xm, x2) << m;
    for (std::int64_t k = 3; k < m; ++k) {
      // Mass above k (only x_m) strictly positive; x_k = 0 => C_k strict.
      EXPECT_GT(rational_binomial(m, k) * xm, Rational(0)) << m << " " << k;
    }
    EXPECT_EQ(x1 + Rational(2) * x2 + rm * xm,
              Rational(4) * rm * rm * n / d)
        << m;
  }
}

TEST(ExactPaper, RingerInequalityBoundary) {
  // The paper's typical example, exactly: x = 5 tasks at multiplicity 11,
  // eps = 3/4. One ringer gives 12/(5+12) = 12/17 < 3/4; two give
  // 24/(5+24) = 24/29 >= 3/4. Hence r = 2 — matching ringer_requirement().
  const Rational eps(3, 4);
  const Rational one_ringer = Rational(12) / Rational(17);
  const Rational two_ringers = Rational(24) / Rational(29);
  EXPECT_LT(one_ringer, eps);
  EXPECT_GE(two_ringers, eps);

  // And the extreme example: 12 tasks at multiplicity 20, eps = 99/100.
  // 56 ringers: 21*56/(12 + 21*56) < 99/100; 57 suffice.
  const Rational eps99(99, 100);
  const Rational r56 = Rational(21 * 56) / Rational(12 + 21 * 56);
  const Rational r57 = Rational(21 * 57) / Rational(12 + 21 * 57);
  EXPECT_LT(r56, eps99);
  EXPECT_GE(r57, eps99);
}

TEST(ExactPaper, GsCrossoverAtThreeQuartersIsExact) {
  // RF_GS(eps)^2 = 1/(1-eps): at eps = 3/4 that is exactly 4 = 2^2, i.e.
  // the GS/simple crossover is exact, not approximate.
  const Rational eps(3, 4);
  EXPECT_EQ(Rational(1) / (Rational(1) - eps), Rational(4));
}

TEST(ExactPaper, DetectionFormulaOnSmallDistribution) {
  // P_1 for x = (60, 40): exactly 80/140 = 4/7; and the C_1 boundary: with
  // eps = 4/7 the constraint holds with equality.
  const Rational x1(60);
  const Rational x2(40);
  const Rational p1 = Rational(2) * x2 / (x1 + Rational(2) * x2);
  EXPECT_EQ(p1, Rational(4, 7));
  const Rational eps = p1;
  const Rational ratio = eps / (Rational(1) - eps);
  EXPECT_EQ(Rational(2) * x2, ratio * x1);
}

}  // namespace
