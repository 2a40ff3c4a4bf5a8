// Tests for the Appendix-A two-phase model: the p^2 N overlap law and the
// 1/sqrt(N) cheating threshold, by both generation methods.
#include <gtest/gtest.h>

#include <cmath>

#include "parallel/thread_pool.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/two_phase.hpp"
#include "two_phase_reference.hpp"

namespace sim = redund::sim;

namespace {

TEST(TwoPhase, ExpectedOverlapClosedForm) {
  EXPECT_DOUBLE_EQ(sim::two_phase_expected_overlap(10000, 100), 1.0);
  EXPECT_DOUBLE_EQ(sim::two_phase_expected_overlap(1000000, 1000), 1.0);
  EXPECT_DOUBLE_EQ(sim::two_phase_expected_overlap(100, 50), 25.0);
  EXPECT_DOUBLE_EQ(sim::two_phase_expected_overlap(0, 5), 0.0);
}

TEST(TwoPhase, ThresholdClosedForm) {
  EXPECT_NEAR(sim::two_phase_threshold(10000), 0.01, 1e-15);
  EXPECT_NEAR(sim::two_phase_threshold(1000000), 0.001, 1e-15);
  EXPECT_EQ(sim::two_phase_threshold(0), 0.0);
}

TEST(TwoPhase, RejectsBadArguments) {
  auto engine = redund::rng::make_stream(1, 0);
  EXPECT_THROW((void)sim::run_two_phase(0, 0, engine), std::invalid_argument);
  EXPECT_THROW((void)sim::run_two_phase(10, 11, engine), std::invalid_argument);
  EXPECT_THROW((void)sim::run_two_phase(10, -1, engine), std::invalid_argument);
}

TEST(TwoPhase, DegenerateBoundaries) {
  auto engine = redund::rng::make_stream(2, 0);
  // Zero work: no overlap. Full work: complete overlap.
  EXPECT_EQ(sim::run_two_phase(100, 0, engine).fully_controlled, 0);
  EXPECT_EQ(sim::run_two_phase(100, 100, engine).fully_controlled, 100);
}

class TwoPhaseMethods : public ::testing::TestWithParam<sim::TwoPhaseMethod> {};

TEST_P(TwoPhaseMethods, MeanOverlapMatchesP2N) {
  // N = 2500, p = 0.04 => w = 100, expected overlap = 4.
  constexpr std::int64_t kN = 2500;
  constexpr std::int64_t kW = 100;
  redund::parallel::ThreadPool pool(2);
  const auto aggregate = sim::reference_two_phase_monte_carlo(
      pool, kN, kW, {.replicas = 4000, .master_seed = 5}, GetParam());
  const double expected = sim::two_phase_expected_overlap(kN, kW);
  EXPECT_NEAR(aggregate.overlap.mean(), expected,
              5.0 * aggregate.overlap.sem() + 1e-9);
}

TEST_P(TwoPhaseMethods, VarianceIsNearPoisson) {
  // For w << N the overlap is ~Binomial(w, w/N) ~ Poisson(w^2/N): variance
  // close to the mean (Appendix A's binomial approximation).
  constexpr std::int64_t kN = 10000;
  constexpr std::int64_t kW = 200;  // Mean 4.
  redund::parallel::ThreadPool pool(2);
  const auto aggregate = sim::reference_two_phase_monte_carlo(
      pool, kN, kW, {.replicas = 4000, .master_seed = 6}, GetParam());
  EXPECT_NEAR(aggregate.overlap.variance(), aggregate.overlap.mean(),
              0.15 * aggregate.overlap.mean());
}

INSTANTIATE_TEST_SUITE_P(Methods, TwoPhaseMethods,
                         ::testing::Values(sim::TwoPhaseMethod::kHypergeometric,
                                           sim::TwoPhaseMethod::kExplicitDeal));

TEST(TwoPhase, ThresholdSeparatesCheatability) {
  // At p = 2/sqrt(N) (mean 4) the adversary can cheat in most rounds; at
  // p = 0.2/sqrt(N) (mean 0.04) she almost never can — the Appendix-A claim
  // that p ~ 1/sqrt(N) is the watershed.
  constexpr std::int64_t kN = 10000;  // sqrt(N) = 100.
  redund::parallel::ThreadPool pool(2);

  const auto above = sim::run_two_phase_monte_carlo(
      pool, kN, 200, {.replicas = 2000, .master_seed = 8});
  const auto below = sim::run_two_phase_monte_carlo(
      pool, kN, 20, {.replicas = 2000, .master_seed = 9});

  EXPECT_GT(above.can_cheat.proportion(), 0.9);   // 1 - e^-4 ~ 0.982.
  EXPECT_LT(below.can_cheat.proportion(), 0.15);  // 1 - e^-0.04 ~ 0.039.
}

TEST(TwoPhase, CanCheatProbabilityMatchesPoissonApproximation) {
  // P[overlap >= 1] ~ 1 - exp(-w^2/N).
  constexpr std::int64_t kN = 40000;
  constexpr std::int64_t kW = 200;  // Mean 1.
  redund::parallel::ThreadPool pool(2);
  const auto aggregate = sim::run_two_phase_monte_carlo(
      pool, kN, kW, {.replicas = 5000, .master_seed = 10});
  const double expected = 1.0 - std::exp(-1.0);
  // Within 4 binomial standard errors.
  const double se = std::sqrt(expected * (1.0 - expected) / 5000.0);
  EXPECT_NEAR(aggregate.can_cheat.proportion(), expected, 4.0 * se);
}

}  // namespace
