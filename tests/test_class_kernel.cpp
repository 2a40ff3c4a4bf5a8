// Statistical-equivalence and determinism tests for the class-aggregated
// replica kernel: its per-held-count attempt histogram must be drawn from
// the same distribution as both per-task exactness ablations and must match
// the paper's closed-form detection probabilities — and the Monte Carlo
// aggregate over it must be byte-identical for any thread-pool size.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/detection.hpp"
#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/engines.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/workload.hpp"
#include "per_task_kernels.hpp"

namespace core = redund::core;
namespace sim = redund::sim;

namespace {

// Accumulates `replicas` replicas of one kernel into a single result.
sim::ReplicaResult accumulate(const sim::Workload& workload,
                              const sim::AdversaryConfig& adversary,
                              sim::Kernel kernel, std::uint64_t seed,
                              std::int64_t replicas) {
  sim::ReplicaResult result;
  for (std::int64_t r = 0; r < replicas; ++r) {
    auto engine = redund::rng::make_stream(seed, static_cast<std::uint64_t>(r));
    sim::run_kernel_into(result, workload, adversary, engine, kernel);
  }
  return result;
}

// Pearson chi-square statistic between two attempt histograms (held count
// k >= 1), pooling each side to its own total. Cells with tiny expectation
// are pooled into their neighbour to keep the statistic honest.
double chi_square(const std::vector<std::int64_t>& observed,
                  const std::vector<std::int64_t>& reference) {
  double n_obs = 0.0;
  double n_ref = 0.0;
  for (std::size_t k = 1; k < observed.size(); ++k) {
    n_obs += static_cast<double>(observed[k]);
  }
  for (std::size_t k = 1; k < reference.size(); ++k) {
    n_ref += static_cast<double>(reference[k]);
  }
  EXPECT_GT(n_obs, 0.0);
  EXPECT_GT(n_ref, 0.0);
  double stat = 0.0;
  const std::size_t width = std::max(observed.size(), reference.size());
  double pooled_obs = 0.0;
  double pooled_exp = 0.0;
  for (std::size_t k = 1; k < width; ++k) {
    const double obs =
        k < observed.size() ? static_cast<double>(observed[k]) : 0.0;
    const double expected =
        (k < reference.size() ? static_cast<double>(reference[k]) : 0.0) *
        n_obs / n_ref;
    pooled_obs += obs;
    pooled_exp += expected;
    if (pooled_exp >= 8.0) {  // Enough mass for the chi-square approximation.
      const double diff = pooled_obs - pooled_exp;
      stat += diff * diff / pooled_exp;
      pooled_obs = 0.0;
      pooled_exp = 0.0;
    }
  }
  if (pooled_exp > 0.0) {
    const double diff = pooled_obs - pooled_exp;
    stat += diff * diff / pooled_exp;
  }
  return stat;
}

sim::Workload mixed_workload() {
  // Several classes with distinct multiplicities plus ringers: exercises the
  // outer class deal, the inner histograms, and the ringer tally.
  return sim::Workload({300, 200, 150, 0, 50}, 40, 3);
}

TEST(ClassKernel, MatchesHypergeometricKernelChiSquare) {
  const auto workload = mixed_workload();
  const sim::AdversaryConfig adversary{
      .proportion = 0.25, .strategy = sim::CheatStrategy::kAlwaysCheat};
  constexpr std::int64_t kReplicas = 400;
  const auto aggregated = accumulate(workload, adversary,
                                     sim::Kernel::kClassAggregated, 1234,
                                     kReplicas);
  const auto per_task = accumulate(workload, adversary,
                                   sim::Kernel::kSequentialHypergeometric,
                                   5678, kReplicas);
  // ~4 pooled cells after merging small ones -> df ~ 3; chi-square beyond 30
  // has p < 1e-5. (Both sides are random, inflating the statistic ~2x over
  // the fixed-expectation case; the bound stays generous.)
  EXPECT_LT(chi_square(aggregated.attempts_by_held, per_task.attempts_by_held),
            30.0);
  // The scalar counters must agree to Monte Carlo accuracy (~1% relative).
  EXPECT_NEAR(static_cast<double>(aggregated.tasks_held),
              static_cast<double>(per_task.tasks_held),
              0.05 * static_cast<double>(per_task.tasks_held));
  EXPECT_NEAR(aggregated.detection_rate(), per_task.detection_rate(), 0.02);
}

TEST(ClassKernel, MatchesPoolShuffleKernelChiSquare) {
  const auto workload = mixed_workload();
  const sim::AdversaryConfig adversary{
      .proportion = 0.3, .strategy = sim::CheatStrategy::kAlwaysCheat};
  constexpr std::int64_t kReplicas = 400;
  const auto aggregated = accumulate(workload, adversary,
                                     sim::Kernel::kClassAggregated, 24,
                                     kReplicas);
  const auto pool = accumulate(workload, adversary,
                               sim::Kernel::kPoolShuffle, 42, kReplicas);
  EXPECT_LT(chi_square(aggregated.attempts_by_held, pool.attempts_by_held),
            30.0);
  EXPECT_NEAR(aggregated.detection_rate(), pool.detection_rate(), 0.02);
}

TEST(ClassKernel, MatchesClosedFormBalancedDetection) {
  // Balanced workload, always-cheat adversary: for the balanced scheme the
  // detection rate at every held count k equals Proposition 3's closed form
  // balanced_detection(eps, p) — the same oracle the per-task kernels are
  // checked against in test_sim.cpp.
  const std::int64_t n = 20000;
  const double eps = 0.5;
  const auto plan = core::realize(
      core::make_balanced(static_cast<double>(n), eps,
                          {.truncate_below = 1e-12}),
      n, eps);
  const sim::Workload workload(plan);
  const sim::AdversaryConfig adversary{
      .proportion = 0.15, .strategy = sim::CheatStrategy::kAlwaysCheat};
  const auto result = accumulate(workload, adversary,
                                 sim::Kernel::kClassAggregated, 99, 60);
  const double expected = core::balanced_detection(eps, adversary.proportion);
  for (std::int64_t k = 1; k <= 2; ++k) {
    const auto attempts = result.attempts_by_held[static_cast<std::size_t>(k)];
    ASSERT_GT(attempts, 1000) << "k=" << k;
    const double sigma = std::sqrt(expected * (1.0 - expected) /
                                   static_cast<double>(attempts));
    EXPECT_NEAR(result.detection_rate_at(k), expected, 5.0 * sigma + 5e-3)
        << "k=" << k;
  }
}

TEST(ClassKernel, ConservesAssignmentsAcrossHistogram) {
  // Always-cheat with certainty: sum over k of k * attempts[k] = total held
  // assignments = w per replica, exactly.
  const auto workload = mixed_workload();
  const sim::AdversaryConfig adversary{
      .proportion = 0.2, .strategy = sim::CheatStrategy::kAlwaysCheat};
  sim::ReplicaResult result;
  sim::ReplicaScratch scratch;
  auto engine = redund::rng::make_stream(7, 7);
  for (int r = 0; r < 25; ++r) {
    sim::run_replica_into(result, workload, adversary, engine, scratch);
  }
  std::int64_t weighted = 0;
  for (std::size_t k = 1; k < result.attempts_by_held.size(); ++k) {
    weighted += static_cast<std::int64_t>(k) * result.attempts_by_held[k];
  }
  EXPECT_EQ(weighted, result.adversary_assignments);
  EXPECT_EQ(result.cheat_attempts, result.tasks_held);
  EXPECT_EQ(result.detected_cheats + result.successful_cheats,
            result.cheat_attempts);
}

TEST(ClassKernel, MonteCarloByteIdenticalAcrossPoolSizes) {
  const auto workload = mixed_workload();
  const sim::AdversaryConfig adversary{
      .proportion = 0.25, .strategy = sim::CheatStrategy::kAlwaysCheat};
  const sim::MonteCarloConfig config{.replicas = 500, .master_seed = 314159};

  std::vector<sim::ReplicaResult> results;
  for (const std::size_t pool_size : {1u, 2u, 8u}) {
    redund::parallel::ThreadPool pool(pool_size);
    results.push_back(sim::run_monte_carlo(pool, workload, adversary, config));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0].replicas, results[i].replicas);
    EXPECT_EQ(results[0].adversary_assignments,
              results[i].adversary_assignments);
    EXPECT_EQ(results[0].tasks_held, results[i].tasks_held);
    EXPECT_EQ(results[0].cheat_attempts, results[i].cheat_attempts);
    EXPECT_EQ(results[0].detected_cheats, results[i].detected_cheats);
    EXPECT_EQ(results[0].successful_cheats, results[i].successful_cheats);
    EXPECT_EQ(results[0].fully_controlled_tasks,
              results[i].fully_controlled_tasks);
    EXPECT_EQ(results[0].replicas_with_detection,
              results[i].replicas_with_detection);
    EXPECT_EQ(results[0].replicas_with_corruption,
              results[i].replicas_with_corruption);
    EXPECT_EQ(results[0].attempts_by_held, results[i].attempts_by_held);
    EXPECT_EQ(results[0].detected_by_held, results[i].detected_by_held);
  }
}

TEST(ClassKernel, AllocationsPinnedOnMixedWorkload) {
  // Exact counters of 200 replicas per kernel, recorded once: the sampler
  // and the per-task ablations' task walk must not move one draw.
  struct Pinned {
    sim::Kernel kernel;
    std::int64_t tasks_held, cheat_attempts, detected_cheats,
        successful_cheats, fully_controlled_tasks;
    std::vector<std::int64_t> attempts_by_held, detected_by_held;
  };
  const std::vector<Pinned> pinned{
      {sim::Kernel::kClassAggregated, 62180, 62180, 44167, 18013, 18143,
       {0, 50111, 10476, 1440, 148, 5}, {0, 35033, 8014, 972, 148, 0}},
      {sim::Kernel::kSequentialHypergeometric, 62000, 62000, 44026, 17974,
       18094, {0, 49795, 10586, 1454, 154, 11}, {0, 34783, 8103, 986, 154, 0}},
      {sim::Kernel::kPoolShuffle, 62075, 62075, 44060, 18015, 18148,
       {0, 50002, 10397, 1515, 146, 15}, {0, 34941, 7938, 1035, 146, 0}},
  };
  const auto workload = mixed_workload();
  const sim::AdversaryConfig adversary{
      .proportion = 0.25, .strategy = sim::CheatStrategy::kAlwaysCheat};
  for (const Pinned& p : pinned) {
    const auto result = accumulate(workload, adversary, p.kernel, 2026, 200);
    EXPECT_EQ(result.replicas, 200);
    EXPECT_EQ(result.adversary_assignments, 76000);
    EXPECT_EQ(result.tasks_held, p.tasks_held);
    EXPECT_EQ(result.cheat_attempts, p.cheat_attempts);
    EXPECT_EQ(result.detected_cheats, p.detected_cheats);
    EXPECT_EQ(result.successful_cheats, p.successful_cheats);
    EXPECT_EQ(result.fully_controlled_tasks, p.fully_controlled_tasks);
    EXPECT_EQ(result.replicas_with_detection, 200);
    EXPECT_EQ(result.replicas_with_corruption, 200);
    EXPECT_EQ(result.attempts_by_held, p.attempts_by_held);
    EXPECT_EQ(result.detected_by_held, p.detected_by_held);
  }
}

TEST(ClassKernel, ScratchReuseMatchesFreshScratch) {
  // The same seed must give the same replica whether the scratch is reused
  // (hot path) or freshly constructed (wrapper): scratch carries no state
  // between replicas.
  const auto workload = mixed_workload();
  const sim::AdversaryConfig adversary{
      .proportion = 0.25, .strategy = sim::CheatStrategy::kAlwaysCheat};
  sim::ReplicaScratch reused;
  for (std::uint64_t r = 0; r < 5; ++r) {
    auto e1 = redund::rng::make_stream(11, r);
    auto e2 = redund::rng::make_stream(11, r);
    sim::ReplicaResult hot;
    sim::run_replica_into(hot, workload, adversary, e1, reused);
    const auto fresh = sim::run_replica(workload, adversary, e2);
    EXPECT_EQ(hot.attempts_by_held, fresh.attempts_by_held);
    EXPECT_EQ(hot.detected_by_held, fresh.detected_by_held);
    EXPECT_EQ(hot.tasks_held, fresh.tasks_held);
  }
}

}  // namespace
