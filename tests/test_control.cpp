// The online adaptive controller (src/control/): estimator math, re-plan
// monotonicity and feasibility, cadence/budget gating, and the runtime
// integration's determinism contract — an adaptive campaign under a
// drifting adversary is byte-identical across queue kinds, shard pool
// sizes, and kill/resume cuts, and a controller facing no threat leaves
// the static plan untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/estimator.hpp"
#include "control/replanner.hpp"
#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/audit.hpp"
#include "runtime/fault.hpp"
#include "runtime/sharded.hpp"
#include "runtime/supervisor.hpp"

namespace control = redund::control;
namespace core = redund::core;
namespace runtime = redund::runtime;
namespace sim = redund::sim;

using runtime::FaultKind;

namespace {

// ---------------------------------------------------------------- beta_cdf

TEST(BetaCdf, UniformPriorIsTheIdentity) {
  // I_x(1, 1) = x exactly.
  for (double x : {0.0, 0.125, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    EXPECT_NEAR(control::beta_cdf(x, 1.0, 1.0), x, 1e-12) << "x=" << x;
  }
}

TEST(BetaCdf, SatisfiesTheReflectionSymmetry) {
  // I_x(a, b) = 1 - I_{1-x}(b, a).
  for (double x : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    for (double a : {0.5, 2.0, 7.0}) {
      for (double b : {1.0, 5.0, 40.0}) {
        EXPECT_NEAR(control::beta_cdf(x, a, b),
                    1.0 - control::beta_cdf(1.0 - x, b, a), 1e-10)
            << "x=" << x << " a=" << a << " b=" << b;
      }
    }
  }
}

TEST(BetaCdf, IsMonotoneWithClampedTails) {
  double previous = -1.0;
  for (int i = 0; i <= 20; ++i) {
    const double x = static_cast<double>(i) / 20.0;
    const double value = control::beta_cdf(x, 3.0, 17.0);
    EXPECT_GE(value, previous);
    previous = value;
  }
  EXPECT_EQ(control::beta_cdf(-0.5, 3.0, 17.0), 0.0);
  EXPECT_EQ(control::beta_cdf(1.5, 3.0, 17.0), 1.0);
}

// ------------------------------------------------------ AdversaryEstimator

TEST(AdversaryEstimator, PosteriorMeanConvergesToTheSampleRate) {
  control::AdversaryEstimator estimator;  // Beta(1, 19): mean 0.05.
  EXPECT_NEAR(estimator.posterior_mean(), 0.05, 1e-12);

  estimator.observe(30, 70);
  const double early = estimator.posterior_mean();
  EXPECT_NEAR(early, 31.0 / 120.0, 1e-12);

  estimator.observe(270, 630);  // 1000 total at rate 0.3.
  const double late = estimator.posterior_mean();
  EXPECT_LT(std::abs(late - 0.3), std::abs(early - 0.3));
  EXPECT_NEAR(late, 301.0 / 1020.0, 1e-12);
}

TEST(AdversaryEstimator, UpperCredibleCoversAndTightens) {
  control::AdversaryEstimator coarse;
  coarse.observe(10, 90);
  const double coarse_upper = coarse.upper_credible(0.95);
  EXPECT_GT(coarse_upper, coarse.posterior_mean());  // Pessimistic.
  EXPECT_GT(coarse_upper, 0.1);                      // Covers the truth.

  control::AdversaryEstimator fine;
  fine.observe(100, 900);
  const double fine_upper = fine.upper_credible(0.95);
  EXPECT_GT(fine_upper, 0.1);
  // Ten times the evidence at the same rate: a strictly tighter limit.
  EXPECT_LT(fine_upper - fine.posterior_mean(),
            coarse_upper - coarse.posterior_mean());

  // Deterministic closed form: recomputing is bit-identical.
  EXPECT_EQ(fine_upper, fine.upper_credible(0.95));
}

TEST(AdversaryEstimator, RejectsInvalidInputs) {
  control::AdversaryEstimator estimator;
  EXPECT_THROW(estimator.observe(-1, 0), std::invalid_argument);
  EXPECT_THROW(estimator.observe(0, -1), std::invalid_argument);
  EXPECT_THROW((void)estimator.upper_credible(0.0), std::invalid_argument);
  EXPECT_THROW((void)estimator.upper_credible(1.0), std::invalid_argument);
}

TEST(RateEwma, SmoothsTowardTheObservedRate) {
  control::RateEwma ewma;
  EXPECT_FALSE(ewma.initialized());
  EXPECT_EQ(ewma.value(), 0.0);
  ewma.observe(true);  // First observation seeds the value.
  EXPECT_TRUE(ewma.initialized());
  EXPECT_EQ(ewma.value(), 1.0);
  ewma.observe(false);  // 1 - alpha = 0.95 of the old value remains.
  EXPECT_NEAR(ewma.value(), 0.95, 1e-12);
}

// ----------------------------------------------------------- plan_remaining

std::vector<control::ResidualClass> weak_mix() {
  // A fresh balanced-like mix, everything promotable: the weakest class
  // is the multiplicity-1 half.
  return {{1, 40, 40, 0}, {2, 20, 20, 0}, {3, 10, 10, 0}, {4, 6, 6, 0}};
}

TEST(PlanRemaining, FeasibleMixIsLeftAlone) {
  // Everything already at multiplicity 4 with nothing releasable: the
  // bound holds at the evaluated p and there is nothing to do.
  const std::vector<control::ResidualClass> strong = {{4, 30, 30, 0}};
  control::ReplanBudgets budgets;
  budgets.epsilon = 0.5;
  const auto decision = control::plan_remaining(strong, 0.05, budgets);
  EXPECT_TRUE(decision.empty());
  EXPECT_TRUE(decision.feasible);
  EXPECT_GE(decision.detection_before, budgets.epsilon);
}

TEST(PlanRemaining, EscalatesAWeakMixBackToFeasibility) {
  control::ReplanBudgets budgets;
  budgets.epsilon = 0.75;  // The mix holds ~0.64 at this p: too weak.
  const auto decision = control::plan_remaining(weak_mix(), 0.15, budgets);
  EXPECT_LT(decision.detection_before, budgets.epsilon);
  EXPECT_GT(decision.promoted(), 0);
  EXPECT_EQ(decision.released(), 0);
  EXPECT_GT(decision.detection_after, decision.detection_before);
  EXPECT_TRUE(decision.feasible);
  EXPECT_GE(decision.detection_after, budgets.epsilon);
}

TEST(PlanRemaining, PromotionsAreMonotoneInTheThreatEstimate) {
  // A larger p-hat never plans *less* redundancy, and any round that
  // releases copies must still clear epsilon afterwards (the feasible
  // minimum).
  control::ReplanBudgets budgets;
  budgets.epsilon = 0.5;
  std::int64_t previous_promoted = 0;
  for (double p : {0.0, 0.05, 0.1, 0.2, 0.3}) {
    const auto decision = control::plan_remaining(weak_mix(), p, budgets);
    EXPECT_GE(decision.promoted(), previous_promoted) << "p=" << p;
    if (decision.released() > 0) {
      EXPECT_GE(decision.detection_after, budgets.epsilon) << "p=" << p;
    }
    previous_promoted = decision.promoted();
  }
}

TEST(PlanRemaining, ReleasesOverProvisionedCopiesWithoutBreakingTheBound) {
  // Previously boosted tasks (demotable) at a calm p: the planner gives
  // copies back, but never past the point where the bound would fail.
  const std::vector<control::ResidualClass> boosted = {
      {3, 30, 0, 30}, {4, 20, 0, 20}};
  control::ReplanBudgets budgets;
  budgets.epsilon = 0.5;
  const auto decision = control::plan_remaining(boosted, 0.01, budgets);
  EXPECT_GT(decision.released(), 0);
  EXPECT_EQ(decision.promoted(), 0);
  EXPECT_TRUE(decision.feasible);
  EXPECT_GE(decision.detection_after, budgets.epsilon);

  control::ReplanBudgets frozen = budgets;
  frozen.allow_release = false;
  EXPECT_EQ(control::plan_remaining(boosted, 0.01, frozen).released(), 0);
}

TEST(PlanRemaining, RespectsTheStepBudgets) {
  // Both loops stop at their per-round caps while supply is left: 1,500
  // promotable tasks against an unreachable target, and 200 releasable
  // copies in a calm round.
  control::ReplanBudgets budgets;
  budgets.epsilon = 0.99;  // Unreachable: the loop runs to its cap.
  const std::vector<control::ResidualClass> weak = {{1, 1000, 1000, 0},
                                                    {2, 500, 500, 0}};
  const auto capped = control::plan_remaining(weak, 0.3, budgets);
  EXPECT_EQ(capped.promoted(), control::ReplanBudgets::kMaxPromotions);
  EXPECT_FALSE(capped.feasible);

  control::ReplanBudgets calm;
  calm.epsilon = 0.5;
  const std::vector<control::ResidualClass> boosted = {{4, 200, 0, 200}};
  const auto released = control::plan_remaining(boosted, 0.01, calm);
  EXPECT_EQ(released.released(), control::ReplanBudgets::kMaxReleases);
  EXPECT_TRUE(released.feasible);
}

TEST(PlanRemaining, UnverifiedTopIsNeverPromotedInCircles) {
  // With an unverified top class (no ringers), promoting the top task
  // just mints a new unverified top — the planner must stop once the
  // weakest tuple is the ceiling, not spin to the promotion budget.
  const std::vector<control::ResidualClass> top_only = {{3, 10, 10, 0}};
  control::ReplanBudgets budgets;
  budgets.epsilon = 0.99;  // Unreachable for an unverified top.
  budgets.top_verified = false;
  const auto decision = control::plan_remaining(top_only, 0.3, budgets);
  EXPECT_FALSE(decision.feasible);
  EXPECT_LT(decision.promoted(), control::ReplanBudgets::kMaxPromotions);
  EXPECT_LE(decision.promoted(), 1);
}

void expect_bit_identical(const control::ReplanDecision& a,
                          const control::ReplanDecision& b,
                          const std::string& where) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.detection_before),
            std::bit_cast<std::uint64_t>(b.detection_before))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.detection_after),
            std::bit_cast<std::uint64_t>(b.detection_after))
      << where;
  EXPECT_EQ(a.feasible, b.feasible) << where;
  const auto same = [&](const std::vector<control::ClassDelta>& x,
                        const std::vector<control::ClassDelta>& y) {
    ASSERT_EQ(x.size(), y.size()) << where;
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i].multiplicity, y[i].multiplicity) << where << " #" << i;
      EXPECT_EQ(x[i].count, y[i].count) << where << " #" << i;
    }
  };
  same(a.promotions, b.promotions);
  same(a.demotions, b.demotions);
}

TEST(PlanRemaining, ClassOrderCannotChangeTheDecision) {
  // The runtime hands its classes over in ascending multiplicity, not in
  // the order a task walk first meets them: every permutation of the
  // classes, a multiplicity split across two entries included, must give
  // the decision that the folded mix gives, bit for bit.
  const std::vector<control::ResidualClass> split = {
      {2, 12, 12, 3}, {1, 25, 25, 0}, {3, 5, 5, 5},
      {2, 8, 8, 2},   {4, 6, 0, 6}};
  const std::vector<control::ResidualClass> folded = {
      {1, 25, 25, 0}, {2, 20, 20, 5}, {3, 5, 5, 5}, {4, 6, 0, 6}};
  struct Round {
    double p;
    double epsilon;
  };
  // A hot round that promotes and a calm one that releases.
  for (const Round round : {Round{0.2, 0.7}, Round{0.01, 0.3}}) {
    control::ReplanBudgets budgets;
    budgets.epsilon = round.epsilon;
    const control::ReplanDecision want =
        control::plan_remaining(folded, round.p, budgets);
    EXPECT_GT(round.p > 0.1 ? want.promoted() : want.released(), 0)
        << "p=" << round.p;

    std::vector<std::size_t> order(split.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    int permutations = 0;
    do {
      std::vector<control::ResidualClass> classes;
      std::string where = "p=" + std::to_string(round.p) + " order";
      for (const std::size_t i : order) {
        classes.push_back(split[i]);
        where += ' ';
        where += std::to_string(i);
      }
      expect_bit_identical(control::plan_remaining(classes, round.p, budgets),
                           want, where);
      ++permutations;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(permutations, 120);
  }
}

TEST(PlanRemaining, RejectsMalformedInputs) {
  control::ReplanBudgets budgets;
  EXPECT_THROW((void)control::plan_remaining(weak_mix(), 1.0, budgets),
               std::invalid_argument);
  EXPECT_THROW((void)control::plan_remaining(weak_mix(), -0.1, budgets),
               std::invalid_argument);
  EXPECT_THROW(
      (void)control::plan_remaining({{0, 5, 0, 0}}, 0.1, budgets),
      std::invalid_argument);
  EXPECT_THROW(
      (void)control::plan_remaining({{2, 5, 6, 0}}, 0.1, budgets),
      std::invalid_argument);
  control::ReplanBudgets bad = budgets;
  bad.epsilon = 1.5;
  EXPECT_THROW((void)control::plan_remaining(weak_mix(), 0.1, bad),
               std::invalid_argument);
}

// ------------------------------------------------------- CampaignController

TEST(CampaignController, DueGatesOnCadenceAndEvidence) {
  control::ControlConfig config;
  config.enabled = true;
  config.replan_interval = 10;
  config.min_observations = 4;
  control::CampaignController controller(config);

  // Enough completions, not enough evidence.
  EXPECT_FALSE(controller.due(50));
  for (int i = 0; i < 4; ++i) controller.observe_outcome(i == 0);
  EXPECT_TRUE(controller.due(50));
  EXPECT_FALSE(controller.due(9));  // Not enough new completions.

  controller.mark_replanned(50);
  EXPECT_FALSE(controller.due(59));
  EXPECT_TRUE(controller.due(60));
}

TEST(CampaignController, ReleasesAreGatedOnFleetHealth) {
  control::ControlConfig config;
  config.enabled = true;
  control::CampaignController controller(config);

  EXPECT_TRUE(controller.budgets(true).allow_release);
  controller.observe_issue(true);  // Timeout: smoothed rate jumps to 1.
  EXPECT_FALSE(controller.budgets(true).allow_release);
  // At alpha = 0.05 the rate decays as 0.95^k: 0.2503 after 27
  // completions, still above the 0.25 ceiling, and 0.2378 after 28.
  for (int i = 0; i < 27; ++i) controller.observe_issue(false);
  EXPECT_FALSE(controller.budgets(true).allow_release);
  controller.observe_issue(false);
  EXPECT_TRUE(controller.budgets(true).allow_release);

  EXPECT_EQ(controller.budgets(true).top_verified, true);
  EXPECT_EQ(controller.budgets(false).top_verified, false);
}

TEST(ControlConfigValidation, RejectsOutOfRangeFields) {
  control::ControlConfig config;
  config.enabled = true;
  EXPECT_NO_THROW(control::validate(config));
  auto expect_invalid = [](auto mutate) {
    control::ControlConfig bad;
    bad.enabled = true;
    mutate(bad);
    EXPECT_THROW(control::validate(bad), std::invalid_argument);
  };
  expect_invalid([](auto& c) { c.epsilon = 1.5; });
  expect_invalid([](auto& c) { c.replan_interval = 0; });
  expect_invalid([](auto& c) { c.min_observations = -1; });
}

// -------------------------------------------------- runtime integration

core::RealizedPlan balanced_plan(std::int64_t n, double eps) {
  return core::realize(
      core::make_balanced(static_cast<double>(n), eps,
                          {.truncate_below = 1e-9}),
      n, eps);
}

/// An adaptive campaign worth auditing: a non-reactive supervisor (no
/// blacklisting, so the posterior sees the real wrong-rate), a fifth of
/// the fleet colluding with a mid-campaign surge, a detection target the
/// realized plan does not trivially hold, and a controller reviewing on
/// a tight cadence — boosts and releases both fire.
runtime::RuntimeConfig adaptive_scenario() {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(300, 0.5);
  config.honest_participants = 40;
  config.sybil_identities = 20;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.reactive = false;
  config.latency.straggler_fraction = 0.1;
  config.latency.dropout_probability = 0.02;
  config.sample_interval = 10.0;
  config.control.enabled = true;
  config.control.epsilon = 0.6;
  config.control.check_interval = 2.0;
  config.control.replan_interval = 24;
  config.control.min_observations = 16;
  config.faults.events.push_back(
      {.time = 10.0, .kind = FaultKind::kPDrift, .fraction = 0.9,
       .duration = 15.0});
  config.seed = 0xC0117301ULL;
  return config;
}

std::string rendered(const runtime::RuntimeReport& report) {
  std::ostringstream out;
  runtime::print(out, report);
  return out.str();
}

TEST(AdaptiveDeterminism, KillAndResumeReplaysReplanDecisionsBitIdentically) {
  runtime::RuntimeConfig config = adaptive_scenario();
  const runtime::RuntimeReport uninterrupted =
      runtime::run_async_campaign(config);
  ASSERT_GT(uninterrupted.replan_rounds, 0);

  config.journal.path =
      testing::TempDir() + "redund_control_resume.wal";
  config.journal.checkpoint_interval = 128;
  // Cut mid-campaign, inside the controller's active phase.
  const std::int64_t kill_at = uninterrupted.events_processed * 2 / 5;
  const auto capped = runtime::run_async_campaign_capped(config, kill_at);
  ASSERT_FALSE(capped.has_value());
  const runtime::RuntimeReport resumed =
      runtime::resume_async_campaign(config);
  EXPECT_EQ(runtime::report_fingerprint(resumed),
            runtime::report_fingerprint(uninterrupted));
  EXPECT_EQ(rendered(resumed), rendered(uninterrupted));
}

TEST(AdaptiveDeterminism, ShardedAdaptiveMergeIsPoolSizeInvariant) {
  runtime::RuntimeConfig config = adaptive_scenario();
  redund::parallel::ThreadPool one(1);
  redund::parallel::ThreadPool four(4);
  const runtime::RuntimeReport a =
      runtime::run_sharded_campaign(config, 2, one);
  const runtime::RuntimeReport b =
      runtime::run_sharded_campaign(config, 2, four);
  EXPECT_EQ(runtime::report_fingerprint(a), runtime::report_fingerprint(b));
  EXPECT_EQ(rendered(a), rendered(b));
}

TEST(AdaptiveControl, QuietCampaignLeavesTheStaticPlanUntouched) {
  // No adversary at all and a detection target the static plan already
  // meets at the posterior's resting upper limit: the controller reviews
  // but never intervenes — the campaign is the static plan's, byte for
  // byte, except for the control counters themselves.
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(300, 0.5);
  config.honest_participants = 40;
  config.sybil_identities = 0;
  config.strategy = sim::CheatStrategy::kHonest;
  config.latency.dropout_probability = 0.02;
  config.control.enabled = true;
  config.control.epsilon = 0.4;  // Static plan holds this with margin.
  config.control.check_interval = 2.0;
  config.control.replan_interval = 24;
  config.seed = 0x90137ULL;

  const runtime::RuntimeReport report = runtime::run_async_campaign(config);
  EXPECT_GT(report.replan_rounds, 0);
  EXPECT_EQ(report.control_boosts, 0);
  EXPECT_EQ(report.control_releases, 0);
  EXPECT_EQ(report.tasks_valid, report.tasks);
  EXPECT_LT(report.p_hat_upper, 0.2);
}

TEST(AdaptiveControl, EscalatesAgainstASustainedAdversary) {
  // No blacklisting, so wrong results keep arriving: the posterior
  // climbs past where the realized plan's slack covers epsilon and the
  // controller must spend boosts to hold the level on the remaining
  // work.
  runtime::RuntimeConfig config = adaptive_scenario();
  config.faults.events.clear();  // Fully hostile from the start.
  const runtime::RuntimeReport report = runtime::run_async_campaign(config);
  EXPECT_GT(report.replan_rounds, 0);
  EXPECT_GT(report.control_boosts, 0);
  EXPECT_GT(report.p_hat_upper, 0.05);
  EXPECT_EQ(report.tasks_valid, report.tasks);
}

TEST(AdaptiveControl, DeEscalatesWhenTheThreatRecedes) {
  // Hostile opening, then the adversary goes quiet: boosts taken during
  // the hot phase are given back once the posterior's upper limit and
  // the residual mix again clear the target.
  runtime::RuntimeConfig config = adaptive_scenario();
  config.faults.events.clear();
  config.faults.events.push_back(
      {.time = 15.0, .kind = FaultKind::kPDrift, .fraction = 0.02});
  const runtime::RuntimeReport report = runtime::run_async_campaign(config);
  EXPECT_GT(report.control_boosts, 0);
  EXPECT_GT(report.control_releases, 0);
  EXPECT_EQ(report.tasks_valid, report.tasks);
}

TEST(AdaptiveControl, ReplanDecisionsArePinnedByFingerprint) {
  // The re-plan round's task walks (residual mix, promotions, releases)
  // must pick the same tasks in the same order whatever set they iterate:
  // a boosting-then-releasing campaign is pinned to the fingerprint the
  // full 0..N scan produced.
  runtime::RuntimeConfig config = adaptive_scenario();
  config.faults.events.clear();
  config.faults.events.push_back(
      {.time = 15.0, .kind = FaultKind::kPDrift, .fraction = 0.02});
  const runtime::RuntimeReport report = runtime::run_async_campaign(config);
  ASSERT_GT(report.control_boosts, 0);
  ASSERT_GT(report.control_releases, 0);
  EXPECT_EQ(runtime::report_fingerprint(report), 0xf095d37cb4ab005ULL);
}

}  // namespace
