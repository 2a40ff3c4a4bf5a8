// Randomized cross-module property tests.
//
// These don't target a specific paper claim; they pin the *invariants* that
// every claim rests on, over randomized inputs: the detection engine against
// a brute-force reference, monotonicity laws, realization conservation, and
// distributional agreement between the two allocation samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/detection.hpp"
#include "core/distribution.hpp"
#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "core/schemes/golle_stubblebine.hpp"
#include "core/schemes/min_multiplicity.hpp"
#include "math/binomial.hpp"
#include "rng/distributions.hpp"
#include "rng/engines.hpp"
#include "sim/engine.hpp"
#include "per_task_kernels.hpp"

namespace core = redund::core;
namespace sim = redund::sim;

namespace {

/// Brute-force reference for P_{k,p}: direct evaluation of
///   1 - x_k / sum_{i>=k} C(i,k) (1-p)^{i-k} x_i
/// with plain double arithmetic (valid for the small dimensions used here).
double reference_detection(const core::Distribution& d, std::int64_t k,
                           double p) {
  if (k < 1) return 0.0;
  double denominator = 0.0;
  for (std::int64_t i = k; i <= d.dimension(); ++i) {
    denominator += redund::math::binomial(i, k) *
                   std::pow(1.0 - p, static_cast<double>(i - k)) *
                   d.tasks_at(i);
  }
  if (denominator <= 0.0) return 0.0;
  return 1.0 - d.tasks_at(k) / denominator;
}

core::Distribution random_distribution(redund::rng::Xoshiro256StarStar& engine) {
  const auto dim = 2 + redund::rng::uniform_below(10, engine);
  std::vector<double> components(dim);
  for (auto& x : components) {
    // Mix of zero, small, and large components.
    const auto kind = redund::rng::uniform_below(4, engine);
    if (kind == 0) {
      x = 0.0;
    } else if (kind == 1) {
      x = redund::rng::uniform01(engine);
    } else {
      x = 1.0 + 10000.0 * redund::rng::uniform01(engine);
    }
  }
  components.back() = 1.0 + 100.0 * redund::rng::uniform01(engine);
  return core::Distribution(std::move(components));
}

class RandomDistributionSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomDistributionSweep, EngineMatchesBruteForce) {
  auto engine = redund::rng::make_stream(0xF00D, GetParam());
  const core::Distribution d = random_distribution(engine);
  for (std::int64_t k = 1; k <= d.dimension(); ++k) {
    for (const double p : {0.0, 0.07, 0.2, 0.5}) {
      const double expected = reference_detection(d, k, p);
      EXPECT_NEAR(core::detection_probability(d, k, p), expected,
                  1e-9 + 1e-9 * std::abs(expected))
          << "k=" << k << " p=" << p;
    }
  }
}

TEST_P(RandomDistributionSweep, DetectionIsMonotoneNonIncreasingInP) {
  auto engine = redund::rng::make_stream(0xBEEF, GetParam());
  const core::Distribution d = random_distribution(engine);
  for (std::int64_t k = 1; k <= d.dimension(); ++k) {
    double previous = 1.0 + 1e-12;
    for (const double p : {0.0, 0.1, 0.2, 0.4, 0.6, 0.8}) {
      const double current = core::detection_probability(d, k, p);
      EXPECT_LE(current, previous + 1e-12) << "k=" << k << " p=" << p;
      previous = current;
    }
  }
}

TEST_P(RandomDistributionSweep, DetectionBoundsAndTopZero) {
  auto engine = redund::rng::make_stream(0xCAFE, GetParam());
  const core::Distribution d = random_distribution(engine);
  for (std::int64_t k = 1; k <= d.dimension(); ++k) {
    const double value = core::detection_probability(d, k, 0.1);
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 1.0);
  }
  // The top multiplicity has no mass above it by Distribution's invariant.
  EXPECT_EQ(core::asymptotic_detection(d, d.dimension()), 0.0);
}

TEST_P(RandomDistributionSweep, AddingMassAboveKRaisesPk) {
  auto engine = redund::rng::make_stream(0xD1CE, GetParam());
  const core::Distribution d = random_distribution(engine);
  const std::int64_t k = 1;
  std::vector<double> boosted = d.components();
  boosted.push_back(1000.0);  // New top band, far above k.
  const core::Distribution d2{boosted};
  EXPECT_GE(core::asymptotic_detection(d2, k),
            core::asymptotic_detection(d, k) - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDistributionSweep,
                         ::testing::Range<std::uint64_t>(0, 24));

// ------------------------------------------------------------- realization

class RandomRealizeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomRealizeSweep, CoversExactlyNAndStaysNearTheory) {
  auto engine = redund::rng::make_stream(0x5EED, GetParam());
  const auto n = static_cast<std::int64_t>(
      1000 + redund::rng::uniform_below(200000, engine));
  const double eps = 0.05 + 0.9 * redund::rng::uniform01(engine);

  core::Distribution theoretical;
  switch (redund::rng::uniform_below(3, engine)) {
    case 0:
      theoretical = core::make_balanced(static_cast<double>(n), eps,
                                        {.truncate_below = 1e-12});
      break;
    case 1:
      theoretical = core::make_golle_stubblebine_for_level(
          static_cast<double>(n), eps, {.truncate_below = 1e-12});
      break;
    default:
      theoretical = core::make_min_multiplicity(
          static_cast<double>(n), eps,
          1 + static_cast<std::int64_t>(redund::rng::uniform_below(3, engine)),
          {.truncate_below = 1e-12});
      break;
  }
  const auto plan = core::realize(theoretical, n, eps);

  std::int64_t covered = 0;
  for (const auto count : plan.counts) {
    ASSERT_GE(count, 0);
    covered += count;
  }
  EXPECT_EQ(covered, n) << theoretical.label();
  // Integer cost within half a percent (plus slack for tiny N) of theory.
  EXPECT_NEAR(static_cast<double>(plan.work_assignments),
              theoretical.total_assignments(),
              0.005 * theoretical.total_assignments() + 64.0)
      << theoretical.label();
  // Ringers guard the top band at the requested level.
  if (plan.ringer_count > 0) {
    const double x_top = static_cast<double>(plan.counts.back());
    const double protection =
        static_cast<double>(plan.ringer_multiplicity) *
        static_cast<double>(plan.ringer_count);
    EXPECT_GE(protection / (x_top + protection), eps - 1e-9)
        << theoretical.label();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomRealizeSweep,
                         ::testing::Range<std::uint64_t>(0, 24));

// ------------------------------------------- allocation sampler agreement

TEST(AllocationAgreement, HeldCountHistogramsMatch) {
  // Joint check on a small heterogeneous workload: the distribution of the
  // number of copies the adversary holds of the single multiplicity-4 task
  // must agree between the two exact samplers (chi-square-ish bound via
  // per-bucket normal tolerance).
  const sim::Workload workload({6, 3, 2, 1}, 0, 0);  // 12 tasks, 23 units.
  constexpr double kShare = 0.4;
  constexpr int kDraws = 20000;

  // Attempts by copies held: buckets 0..4, then one overflow bucket.
  std::array<double, 6> hyper{};
  std::array<double, 6> pool{};
  const auto add_profile = [](std::array<double, 6>& into,
                              const std::vector<std::int64_t>& by_held) {
    for (std::size_t k = 1; k < by_held.size(); ++k) {
      into[std::min<std::size_t>(k, 5)] += static_cast<double>(by_held[k]);
    }
  };
  sim::AdversaryConfig adversary{.proportion = kShare,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  for (std::uint64_t r = 0; r < kDraws; ++r) {
    auto e1 = redund::rng::make_stream(900, r);
    auto e2 = redund::rng::make_stream(901, r);
    const auto a = sim::run_replica(
        workload, adversary, e1, sim::Kernel::kSequentialHypergeometric);
    const auto b =
        sim::run_replica(workload, adversary, e2, sim::Kernel::kPoolShuffle);
    // Compare the attempts-by-held profiles across all tasks.
    add_profile(hyper, a.attempts_by_held);
    add_profile(pool, b.attempts_by_held);
  }
  const double hyper_total = std::accumulate(hyper.begin(), hyper.end(), 0.0);
  const double pool_total = std::accumulate(pool.begin(), pool.end(), 0.0);
  ASSERT_GT(hyper_total, 0.0);
  ASSERT_GT(pool_total, 0.0);
  for (std::size_t k = 1; k <= 4; ++k) {
    const double fa = hyper[k] / hyper_total;
    const double fb = pool[k] / pool_total;
    const double sigma = std::sqrt(fa * (1.0 - fa) / hyper_total +
                                   fb * (1.0 - fb) / pool_total);
    EXPECT_NEAR(fa, fb, 6.0 * sigma + 1e-3) << "k=" << k;
  }
}

// ------------------------------------------- closed-form chain consistency

TEST(ChainConsistency, Section7EngineMatchesBalancedAtFloorOne) {
  // make_min_multiplicity(m=1) and make_balanced must be the same
  // distribution component-for-component.
  const auto a = core::make_balanced(1e5, 0.6, {.truncate_below = 1e-12});
  const auto b =
      core::make_min_multiplicity(1e5, 0.6, 1, {.truncate_below = 1e-12});
  ASSERT_EQ(a.dimension(), b.dimension());
  for (std::int64_t i = 1; i <= a.dimension(); ++i) {
    EXPECT_NEAR(a.tasks_at(i), b.tasks_at(i), 1e-6 * (a.tasks_at(i) + 1.0));
  }
}

TEST(ChainConsistency, SimEngineMatchesMinMultiplicityClosedForm) {
  // Section 7 meets the simulator: empirical detection on an m = 2 floored
  // plan is ~eps for every tuple size the adversary can hold.
  constexpr std::int64_t kN = 20000;
  const double eps = 0.5;
  const auto plan = core::realize(
      core::make_min_multiplicity(kN, eps, 2, {.truncate_below = 1e-12}), kN,
      eps);
  const sim::Workload workload(plan);
  sim::AdversaryConfig adversary{.proportion = 0.03,
                                 .strategy = sim::CheatStrategy::kAlwaysCheat};
  sim::ReplicaResult merged;
  for (std::uint64_t r = 0; r < 40; ++r) {
    auto engine = redund::rng::make_stream(777, r);
    merged.merge(sim::run_replica(workload, adversary, engine));
  }
  // No singleton tasks exist, so no k = 1 attempts can ever succeed without
  // detection... in fact k=1 attempts are always detected (mult >= 2).
  ASSERT_GT(merged.attempts_by_held[1], 1000);
  EXPECT_EQ(merged.detected_by_held[1], merged.attempts_by_held[1]);
  // k = 2 attempts face ~eps (slightly less at p = 0.03 per Prop. 3).
  ASSERT_GT(merged.attempts_by_held[2], 500);
  EXPECT_NEAR(merged.detection_rate_at(2),
              core::balanced_detection(eps, 0.03), 0.05);
}

}  // namespace
