// Statistical conformance of the asynchronous runtime to the paper's
// closed forms. With reactive and adaptive measures off, the default
// latency model and an always-cheat coalition holding a share p of the
// identities, a task dealt i copies is corrupt when the coalition holds
// all i (probability p^i) and shows a mismatch when it holds some but not
// all (1 - p^i - (1-p)^i). Summed over the plan's classes and ten seeds,
// the runtime's counts must sit within 4 standard errors of
// Σ x_i p^i and Σ x_i (1 - p^i - (1-p)^i).
//
// p is the coalition's identity share, not its share of completed units:
// quorum replicas dealt after a mismatch dilute the latter, and estimating
// p from it reads some 20 standard errors high on a correct runtime.
// Ringer tasks are accepted against the supervisor's own answer, so they
// count in neither total and are left out of the prediction too.
//
// The clock is checked the same way: on a multiplicity-1 plan with an
// honest, homogeneous fleet, the makespan over thirty seeds must sit
// within 4 standard errors of its closed-form mean.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "core/planner.hpp"
#include "math/poisson.hpp"
#include "runtime/supervisor.hpp"
#include "stats/accumulator.hpp"

namespace core = redund::core;
namespace runtime = redund::runtime;
namespace sim = redund::sim;

namespace {

constexpr std::int64_t kTasks = 50'000;
constexpr double kEpsilon = 0.5;
constexpr std::int64_t kHonest = 1'000;
constexpr std::int64_t kSybils = 100;
constexpr std::uint64_t kSeeds = 10;
constexpr double kMaxZ = 4.0;

/// Observed-minus-predicted count in units of its binomial standard error.
struct ZScores {
  double corrupt = 0.0;
  double mismatch = 0.0;
};

ZScores conformance(core::Scheme scheme) {
  core::PlanRequest request;
  request.task_count = kTasks;
  request.epsilon = kEpsilon;
  request.scheme = scheme;
  const core::RealizedPlan plan = core::make_plan(request).realized;

  // Per-class binomial mean and variance of each count, per campaign.
  const double p = static_cast<double>(kSybils) /
                   static_cast<double>(kHonest + kSybils);
  double corrupt_mean = 0.0;
  double corrupt_var = 0.0;
  double mismatch_mean = 0.0;
  double mismatch_var = 0.0;
  for (std::size_t k = 0; k < plan.counts.size(); ++k) {
    const double i = static_cast<double>(k + 1);
    const double x = static_cast<double>(plan.counts[k]);
    const double all = std::pow(p, i);
    const double some = 1.0 - all - std::pow(1.0 - p, i);
    corrupt_mean += x * all;
    corrupt_var += x * all * (1.0 - all);
    mismatch_mean += x * some;
    mismatch_var += x * some * (1.0 - some);
  }

  runtime::RuntimeConfig config;
  config.plan = plan;
  config.honest_participants = kHonest;
  config.sybil_identities = kSybils;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.reactive = false;
  config.adaptive.enabled = false;
  std::int64_t corrupt = 0;
  std::int64_t mismatches = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    config.seed = seed;
    const runtime::RuntimeReport report = runtime::run_async_campaign(config);
    EXPECT_EQ(report.outcome, runtime::CampaignOutcome::kCompleted);
    corrupt += report.final_corrupt_tasks;
    mismatches += report.mismatches_detected;
  }

  const auto seeds = static_cast<double>(kSeeds);
  return {(static_cast<double>(corrupt) - seeds * corrupt_mean) /
              std::sqrt(seeds * corrupt_var),
          (static_cast<double>(mismatches) - seeds * mismatch_mean) /
              std::sqrt(seeds * mismatch_var)};
}

void expect_conforms(core::Scheme scheme) {
  const ZScores z = conformance(scheme);
  EXPECT_LT(std::abs(z.corrupt), kMaxZ) << "corrupt tasks z = " << z.corrupt;
  EXPECT_LT(std::abs(z.mismatch), kMaxZ) << "mismatches z = " << z.mismatch;
}

TEST(Conformance, GolleStubblebineMatchesClosedForms) {
  expect_conforms(core::Scheme::kGolleStubblebine);
}

TEST(Conformance, BalancedMatchesClosedForms) {
  expect_conforms(core::Scheme::kBalanced);
}

TEST(Conformance, MinAssignmentMatchesClosedForms) {
  expect_conforms(core::Scheme::kMinAssignment);
}

TEST(Conformance, MinMultiplicityMatchesClosedForms) {
  expect_conforms(core::Scheme::kMinMultiplicity);
}

// Push, homogeneous: U = 15,000 tasks at multiplicity 1 dealt round-robin
// to P = 100 honest participants give each exactly 150 units. With no
// stragglers, dropout, speed spread, deadline, replicas or reaction, each
// participant serves its units one after another, each an Exp(1) demand,
// so the makespan is the largest of P independent Gamma(150, 1) sums:
// E[makespan] = ∫₀^∞ 1 − F(t)^P dt, with F(t) = P[Gamma(150, 1) <= t] =
// P[Poisson(t) >= 150].
TEST(ClockConformance, PushHomogeneousMakespanMatchesMaxOfGammas) {
  constexpr std::int64_t kUnits = 15'000;
  constexpr std::int64_t kParticipants = 100;
  constexpr std::int64_t kPerParticipant = kUnits / kParticipants;
  constexpr std::uint64_t kClockSeeds = 30;

  // Simpson's rule on [0, 400]: the integrand is 1 to within 1e-300 under
  // t = 60 and below 1e-19 past t = 300.
  constexpr int kSteps = 8'000;
  constexpr double kUpper = 400.0;
  const auto survival = [](double t) {
    return 1.0 - std::pow(redund::math::poisson_upper_tail(t, kPerParticipant),
                          static_cast<double>(kParticipants));
  };
  const double h = kUpper / kSteps;
  double simpson = survival(0.0) + survival(kUpper);
  for (int i = 1; i < kSteps; ++i) {
    simpson += (i % 2 == 1 ? 4.0 : 2.0) * survival(i * h);
  }
  const double expected = simpson * h / 3.0;

  runtime::RuntimeConfig config;
  config.plan.counts = {kUnits};
  config.plan.task_count = kUnits;
  config.plan.work_assignments = kUnits;
  config.honest_participants = kParticipants;
  config.sybil_identities = 0;
  config.reactive = false;
  config.adaptive.enabled = false;
  config.latency.straggler_fraction = 0.0;
  config.latency.dropout_probability = 0.0;
  config.latency.speed_sigma = 0.0;
  config.retry.deadline = 1e9;
  redund::stats::Accumulator makespan;
  for (std::uint64_t seed = 1; seed <= kClockSeeds; ++seed) {
    config.seed = seed;
    const runtime::RuntimeReport report = runtime::run_async_campaign(config);
    ASSERT_EQ(report.outcome, runtime::CampaignOutcome::kCompleted);
    ASSERT_EQ(report.units_issued, kUnits) << "seed " << seed;
    makespan.add(report.makespan);
  }
  EXPECT_NEAR(makespan.mean(), expected, kMaxZ * makespan.sem())
      << "makespan " << makespan.mean() << " +- " << makespan.sem()
      << " vs E[max] " << expected;
}

}  // namespace
