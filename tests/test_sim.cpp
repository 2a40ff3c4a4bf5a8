// Tests for the volunteer-computing simulator: workload construction,
// adversary strategies, both allocation algorithms, and — most importantly —
// agreement between empirical detection rates and the paper's closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "core/schemes/golle_stubblebine.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/workload.hpp"
#include "stats/accumulator.hpp"

namespace core = redund::core;
namespace sim = redund::sim;

namespace {

// -------------------------------------------------------------- workload

TEST(Workload, CountsTasksAndAssignments) {
  // 3 singletons, 2 pairs, 1 triple + 2 ringers of multiplicity 4.
  const sim::Workload w({3, 2, 1}, 2, 4);
  EXPECT_EQ(w.task_count(), 8);
  EXPECT_EQ(w.total_assignments(), 3 + 4 + 3 + 8);
  EXPECT_EQ(w.ringer_count(), 2);
  std::int64_t ringers = 0;
  for (const auto& cls : w.classes()) ringers += cls.is_ringer ? cls.count : 0;
  EXPECT_EQ(ringers, 2);
}

TEST(Workload, FromRealizedPlan) {
  const auto plan = core::realize(core::make_simple_redundancy(50.0, 2), 50,
                                  0.5);
  const sim::Workload w(plan);
  EXPECT_EQ(w.task_count(), 50 + plan.ringer_count);
  EXPECT_EQ(w.total_assignments(), plan.total_assignments());
}

TEST(Workload, RejectsBadInput) {
  EXPECT_THROW((void)sim::Workload({-1}, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)sim::Workload({1}, 2, 0), std::invalid_argument);
}

// -------------------------------------------------------------- adversary

TEST(Adversary, StrategyDecisions) {
  sim::AdversaryConfig config;
  config.strategy = sim::CheatStrategy::kHonest;
  EXPECT_FALSE(config.should_cheat(3));

  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  EXPECT_TRUE(config.should_cheat(1));
  EXPECT_FALSE(config.should_cheat(0));

  config.strategy = sim::CheatStrategy::kExactTuple;
  config.tuple_size = 2;
  EXPECT_FALSE(config.should_cheat(1));
  EXPECT_TRUE(config.should_cheat(2));
  EXPECT_FALSE(config.should_cheat(3));

  config.strategy = sim::CheatStrategy::kAtLeastTuple;
  EXPECT_TRUE(config.should_cheat(3));
  EXPECT_FALSE(config.should_cheat(1));

  config.strategy = sim::CheatStrategy::kSingletons;
  EXPECT_TRUE(config.should_cheat(1));
  EXPECT_FALSE(config.should_cheat(2));
}

TEST(Adversary, StrategyNames) {
  EXPECT_EQ(sim::to_string(sim::CheatStrategy::kHonest), "honest");
  EXPECT_EQ(sim::to_string(sim::CheatStrategy::kAlwaysCheat), "always-cheat");
  EXPECT_EQ(sim::to_string(sim::CheatStrategy::kExactTuple), "exact-tuple");
  EXPECT_EQ(sim::to_string(sim::CheatStrategy::kAtLeastTuple),
            "at-least-tuple");
  EXPECT_EQ(sim::to_string(sim::CheatStrategy::kSingletons), "singletons");
}

// ----------------------------------------------------------------- engine

TEST(Engine, HonestAdversaryNeverCheats) {
  const sim::Workload w({100, 100}, 0, 0);
  sim::AdversaryConfig adversary{.proportion = 0.2,
                                 .strategy = sim::CheatStrategy::kHonest};
  auto engine = redund::rng::make_stream(1, 0);
  const auto result = sim::run_replica(w, adversary, engine);
  EXPECT_EQ(result.cheat_attempts, 0);
  EXPECT_EQ(result.successful_cheats, 0);
  EXPECT_GT(result.tasks_held, 0);
}

TEST(Engine, ZeroProportionTouchesNothing) {
  const sim::Workload w({100, 100}, 0, 0);
  sim::AdversaryConfig adversary{.proportion = 0.0,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  auto engine = redund::rng::make_stream(2, 0);
  const auto result = sim::run_replica(w, adversary, engine);
  EXPECT_EQ(result.adversary_assignments, 0);
  EXPECT_EQ(result.tasks_held, 0);
}

TEST(Engine, SingletonOnlyWorkloadIsAlwaysUndetected) {
  // Multiplicity-1 tasks cheated on with full holdings are never caught
  // (no honest copy, no ringer).
  const sim::Workload w({1000}, 0, 0);
  sim::AdversaryConfig adversary{.proportion = 0.3,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  auto engine = redund::rng::make_stream(3, 0);
  const auto result = sim::run_replica(w, adversary, engine);
  EXPECT_GT(result.cheat_attempts, 0);
  EXPECT_EQ(result.detected_cheats, 0);
  EXPECT_EQ(result.successful_cheats, result.cheat_attempts);
}

TEST(Engine, RingersAlwaysCatchFullControl) {
  // A workload of only ringers: every cheat is caught even at full control.
  const sim::Workload w({}, 50, 2);
  sim::AdversaryConfig adversary{.proportion = 0.9,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  auto engine = redund::rng::make_stream(4, 0);
  const auto result = sim::run_replica(w, adversary, engine);
  EXPECT_GT(result.cheat_attempts, 0);
  EXPECT_EQ(result.successful_cheats, 0);
}

TEST(Engine, AllocationMethodsAgreeInDistribution) {
  // Same workload, same p: the two allocators must produce statistically
  // indistinguishable held-count totals (they are different exact samplers
  // of the same law).
  const sim::Workload w({500, 300, 100}, 0, 0);
  sim::AdversaryConfig adversary{.proportion = 0.15,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  redund::stats::Accumulator hyper;
  redund::stats::Accumulator pool;
  for (std::uint64_t r = 0; r < 400; ++r) {
    auto e1 = redund::rng::make_stream(10, r);
    auto e2 = redund::rng::make_stream(11, r);
    hyper.add(static_cast<double>(
        sim::run_replica(w, adversary, e1,
                         sim::Allocation::kSequentialHypergeometric)
            .tasks_held));
    pool.add(static_cast<double>(
        sim::run_replica(w, adversary, e2, sim::Allocation::kPoolShuffle)
            .tasks_held));
  }
  // Means within 5 combined standard errors.
  const double se =
      std::sqrt(hyper.sem() * hyper.sem() + pool.sem() * pool.sem());
  EXPECT_NEAR(hyper.mean(), pool.mean(), 5.0 * se + 1e-9);
}

TEST(Engine, HeldCountsConserveAdversaryAssignments) {
  const sim::Workload w({200, 100, 50}, 0, 0);
  sim::AdversaryConfig adversary{.proportion = 0.25,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  // attempts_by_held weighted by held must equal w exactly for AlwaysCheat
  // on a workload where... (cheat_attempts == tasks_held here). Verify the
  // invariant sum_k k * attempts[k] == adversary_assignments.
  auto engine = redund::rng::make_stream(12, 7);
  const auto result = sim::run_replica(w, adversary, engine);
  std::int64_t held_total = 0;
  for (std::size_t k = 1; k < result.attempts_by_held.size(); ++k) {
    held_total += static_cast<std::int64_t>(k) * result.attempts_by_held[k];
  }
  EXPECT_EQ(held_total, result.adversary_assignments);
}

TEST(Engine, IntermittentCheaterScalesAttemptsNotRates) {
  // Cheating on only a fraction q of eligible tasks reduces attempt volume
  // by ~q but leaves the per-attempt detection probability unchanged.
  const sim::Workload w({5000, 3000, 1000}, 0, 0);
  sim::AdversaryConfig full{.proportion = 0.1,
                            .strategy = sim::CheatStrategy::kAlwaysCheat,
                            .cheat_probability = 1.0};
  sim::AdversaryConfig intermittent = full;
  intermittent.cheat_probability = 0.25;

  sim::ReplicaResult full_result;
  sim::ReplicaResult intermittent_result;
  for (std::uint64_t r = 0; r < 60; ++r) {
    auto e1 = redund::rng::make_stream(500, r);
    auto e2 = redund::rng::make_stream(501, r);
    full_result.merge(sim::run_replica(w, full, e1));
    intermittent_result.merge(sim::run_replica(w, intermittent, e2));
  }
  const double ratio =
      static_cast<double>(intermittent_result.cheat_attempts) /
      static_cast<double>(full_result.cheat_attempts);
  EXPECT_NEAR(ratio, 0.25, 0.03);
  EXPECT_NEAR(intermittent_result.detection_rate(),
              full_result.detection_rate(), 0.03);
}

TEST(Engine, AtLeastTupleStrategyFiltersSmallHoldings) {
  const sim::Workload w({0, 0, 2000}, 0, 0);  // All multiplicity 3.
  sim::AdversaryConfig adversary{.proportion = 0.3,
                                 .strategy = sim::CheatStrategy::kAtLeastTuple,
                                 .tuple_size = 2};
  auto engine = redund::rng::make_stream(60, 0);
  const auto result = sim::run_replica(w, adversary, engine);
  ASSERT_GT(result.cheat_attempts, 0);
  EXPECT_EQ(result.attempts_by_held[1], 0);  // k = 1 filtered out.
  EXPECT_GT(result.attempts_by_held[2], 0);
  // Held 2 of 3 => always detected; held 3 of 3 => never.
  EXPECT_EQ(result.detected_by_held[2], result.attempts_by_held[2]);
  EXPECT_EQ(result.detected_by_held[3], 0);
}

TEST(ReplicaResult, AlarmAndCorruptionProbabilities) {
  // All-singleton workload: every cheat corrupts, none is detected.
  const sim::Workload singletons({500}, 0, 0);
  sim::AdversaryConfig adversary{.proportion = 0.2,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  sim::ReplicaResult merged;
  for (std::uint64_t r = 0; r < 20; ++r) {
    auto engine = redund::rng::make_stream(61, r);
    merged.merge(sim::run_replica(singletons, adversary, engine));
  }
  EXPECT_EQ(merged.alarm_probability(), 0.0);
  EXPECT_EQ(merged.corruption_probability(), 1.0);

  // All-pairs workload: every cheat on a partial holding is detected; with
  // p = 0.02 full pairs are rare, so most replicas alarm and few corrupt.
  const sim::Workload pairs({0, 500}, 0, 0);
  adversary.proportion = 0.02;
  sim::ReplicaResult pair_result;
  for (std::uint64_t r = 0; r < 20; ++r) {
    auto engine = redund::rng::make_stream(62, r);
    pair_result.merge(sim::run_replica(pairs, adversary, engine));
  }
  EXPECT_GT(pair_result.alarm_probability(), 0.9);
  EXPECT_LT(pair_result.corruption_probability(),
            pair_result.alarm_probability());
  // Degenerate: empty result reports zeros.
  EXPECT_EQ(sim::ReplicaResult{}.alarm_probability(), 0.0);
  EXPECT_EQ(sim::ReplicaResult{}.corruption_probability(), 0.0);
}

TEST(ReplicaResult, MergeAddsEverything) {
  sim::ReplicaResult a;
  a.replicas = 1;
  a.cheat_attempts = 5;
  a.detected_cheats = 3;
  a.attempts_by_held = {0, 5};
  a.detected_by_held = {0, 3};

  sim::ReplicaResult b;
  b.replicas = 2;
  b.cheat_attempts = 7;
  b.detected_cheats = 2;
  b.attempts_by_held = {0, 4, 3};
  b.detected_by_held = {0, 1, 1};

  a.merge(b);
  EXPECT_EQ(a.replicas, 3);
  EXPECT_EQ(a.cheat_attempts, 12);
  EXPECT_EQ(a.detected_cheats, 5);
  ASSERT_EQ(a.attempts_by_held.size(), 3u);
  EXPECT_EQ(a.attempts_by_held[1], 9);
  EXPECT_EQ(a.detected_by_held[2], 1);
  EXPECT_NEAR(a.detection_rate(), 5.0 / 12.0, 1e-12);
  EXPECT_NEAR(a.detection_rate_at(1), 4.0 / 9.0, 1e-12);
  EXPECT_EQ(a.detection_rate_at(99), 0.0);
}

TEST(ReplicaResult, MergeResizesBothHistogramsToCommonWidth) {
  // A result whose histograms disagree in length (hand-built or from a
  // corrupted snapshot) must not leave the target desynchronized: both
  // vectors grow to the common maximum and every cell lands where its index
  // says.
  sim::ReplicaResult a;
  a.attempts_by_held = {0, 2};
  a.detected_by_held = {0, 1, 0, 4};  // Longer than attempts_by_held.

  sim::ReplicaResult b;
  b.attempts_by_held = {0, 1, 7};
  b.detected_by_held = {0, 1};  // Shorter than attempts_by_held.

  a.merge(b);
  ASSERT_EQ(a.attempts_by_held.size(), 4u);
  ASSERT_EQ(a.detected_by_held.size(), 4u);
  EXPECT_EQ(a.attempts_by_held[1], 3);
  EXPECT_EQ(a.attempts_by_held[2], 7);
  EXPECT_EQ(a.attempts_by_held[3], 0);
  EXPECT_EQ(a.detected_by_held[1], 2);
  EXPECT_EQ(a.detected_by_held[3], 4);

  // Merging into a default (empty-histogram) result keeps both in sync too.
  sim::ReplicaResult fresh;
  fresh.merge(a);
  EXPECT_EQ(fresh.attempts_by_held.size(), fresh.detected_by_held.size());
  EXPECT_EQ(fresh.attempts_by_held, a.attempts_by_held);
  EXPECT_EQ(fresh.detected_by_held, a.detected_by_held);
}

// ------------------------------------------------- closed-form validation

TEST(MonteCarlo, BalancedDetectionMatchesProposition3) {
  // Empirical P_{k,p} on a realized Balanced plan must match
  // 1 - (1-eps)^{1-p} for every tuple size with enough attempts.
  constexpr std::int64_t kN = 20000;
  const double eps = 0.5;
  const double p = 0.10;
  const auto plan = core::realize(
      core::make_balanced(kN, eps, {.truncate_below = 1e-12}), kN, eps);
  const sim::Workload workload(plan);

  redund::parallel::ThreadPool pool(2);
  sim::AdversaryConfig adversary{.proportion = p,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  const auto result = sim::run_monte_carlo(pool, workload, adversary,
                                           {.replicas = 60, .master_seed = 99});

  const double expected = core::balanced_detection(eps, p);
  for (std::int64_t k = 1; k <= 2; ++k) {
    const auto attempts =
        result.attempts_by_held[static_cast<std::size_t>(k)];
    ASSERT_GT(attempts, 1000) << "k=" << k;
    const double rate = result.detection_rate_at(k);
    const double sigma =
        std::sqrt(expected * (1.0 - expected) / static_cast<double>(attempts));
    EXPECT_NEAR(rate, expected, 5.0 * sigma + 5e-3) << "k=" << k;
  }
}

TEST(MonteCarlo, GolleStubblebineDetectionMatchesClosedForm) {
  constexpr std::int64_t kN = 20000;
  const double eps = 0.5;
  const double p = 0.08;
  const double c = core::gs_parameter_for_level(eps);
  const auto plan = core::realize(
      core::make_golle_stubblebine(kN, c, {.truncate_below = 1e-12}), kN, eps);
  const sim::Workload workload(plan);

  redund::parallel::ThreadPool pool(2);
  sim::AdversaryConfig adversary{.proportion = p,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  const auto result = sim::run_monte_carlo(pool, workload, adversary,
                                           {.replicas = 60, .master_seed = 7});

  for (std::int64_t k = 1; k <= 2; ++k) {
    const auto attempts =
        result.attempts_by_held[static_cast<std::size_t>(k)];
    ASSERT_GT(attempts, 500) << "k=" << k;
    const double expected = core::gs_detection(c, k, p);
    const double sigma =
        std::sqrt(expected * (1.0 - expected) / static_cast<double>(attempts));
    // Ringers from the realization lift rates slightly above the closed
    // form, so allow a small positive bias band.
    EXPECT_NEAR(result.detection_rate_at(k), expected, 5.0 * sigma + 0.01)
        << "k=" << k;
  }
}

TEST(MonteCarlo, DeterministicAcrossThreadCounts) {
  constexpr std::int64_t kN = 2000;
  const auto plan = core::realize(
      core::make_balanced(kN, 0.5, {.truncate_below = 1e-9}), kN, 0.5);
  const sim::Workload workload(plan);
  sim::AdversaryConfig adversary{.proportion = 0.1,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};

  redund::parallel::ThreadPool pool1(1);
  redund::parallel::ThreadPool pool4(4);
  const sim::MonteCarloConfig config{.replicas = 40, .master_seed = 2024};
  const auto r1 = sim::run_monte_carlo(pool1, workload, adversary, config);
  const auto r4 = sim::run_monte_carlo(pool4, workload, adversary, config);

  EXPECT_EQ(r1.cheat_attempts, r4.cheat_attempts);
  EXPECT_EQ(r1.detected_cheats, r4.detected_cheats);
  EXPECT_EQ(r1.successful_cheats, r4.successful_cheats);
  EXPECT_EQ(r1.attempts_by_held, r4.attempts_by_held);
}

TEST(MonteCarlo, RejectsNonPositiveReplicas) {
  constexpr std::int64_t kN = 200;
  const auto plan = core::realize(
      core::make_balanced(kN, 0.5, {.truncate_below = 1e-9}), kN, 0.5);
  const sim::Workload workload(plan);
  const sim::AdversaryConfig adversary{
      .proportion = 0.1, .strategy = sim::CheatStrategy::kAlwaysCheat};
  redund::parallel::ThreadPool pool(1);
  for (const std::int64_t replicas : {0, -1}) {
    const sim::MonteCarloConfig config{.replicas = replicas};
    EXPECT_THROW(static_cast<void>(
                     sim::run_monte_carlo(pool, workload, adversary, config)),
                 std::invalid_argument)
        << "replicas=" << replicas;
    for (const auto method : {sim::TwoPhaseMethod::kHypergeometric,
                              sim::TwoPhaseMethod::kExplicitDeal}) {
      EXPECT_THROW(static_cast<void>(sim::run_two_phase_monte_carlo(
                       pool, kN, 10, config, method)),
                   std::invalid_argument)
          << "replicas=" << replicas;
    }
  }
}

}  // namespace
