// Bulk keyed-draw kernels (rng/bulk.hpp): every wave kernel must be
// bit-identical to issuing the scalar keyed draw at each element's natural
// call site — that identity is what makes bulk generation legal in a
// deterministic, resumable runtime. Pinned on a spread of batch sizes
// against the scalar reference functions, plus the two-phase Monte Carlo
// wave consumer end to end.
#include "rng/bulk.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "rng/distributions.hpp"
#include "rng/engines.hpp"
#include "sim/monte_carlo.hpp"
#include "two_phase_reference.hpp"

namespace redund::rng {
namespace {

const std::size_t kSizes[] = {1, 15, 16, 17, 63, 64, 65};

/// Scattered keys: no stride or locality a kernel could lean on.
std::vector<std::uint64_t> scattered_keys(std::size_t n) {
  std::vector<std::uint64_t> keys(n);
  std::uint64_t x = 0x0DDB1A5E5BAD5EEDULL;
  for (std::size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys[i] = x;
  }
  return keys;
}

TEST(BulkRng, FirstDrawMatchesScalarClosedForm) {
  constexpr std::uint64_t kSeed = 0xA5EED0FBADC0FFEEULL;
  for (const std::size_t n : kSizes) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    const auto keys = scattered_keys(n);
    std::vector<std::uint64_t> out(n, 0);
    bulk_first_draw(kSeed, keys.data(), n, out.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], first_draw(kSeed, keys[i])) << "i=" << i;
    }
  }
}

TEST(BulkRng, FirstDrawMatchesFullEngineFirstOutput) {
  // first_draw is itself a closed form; pin the bulk kernel all the way
  // back to the real engine, not just to another shortcut.
  constexpr std::uint64_t kSeed = 0x5EEDULL;
  const std::size_t n = 65;
  const auto keys = scattered_keys(n);
  std::vector<std::uint64_t> out(n, 0);
  bulk_first_draw(kSeed, keys.data(), n, out.data());
  for (std::size_t i = 0; i < n; ++i) {
    Xoshiro256StarStar engine = make_stream(kSeed, keys[i]);
    ASSERT_EQ(out[i], engine()) << "i=" << i;
  }
}

TEST(BulkRng, BernoulliWavesMatchScalarCoins) {
  const std::uint64_t seed = 0xC0117055ULL;
  const double kProbs[] = {0.0, 0.01, 0.5, 0.99, 1.0};
  for (const std::size_t n : kSizes) {
    const auto keys = scattered_keys(n);
    std::vector<std::uint64_t> scratch(n);
    std::vector<std::uint8_t> out(n);
    for (const double p : kProbs) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " p=" << p);
      bulk_first_bernoulli(p, seed, keys.data(), n, scratch.data(),
                           out.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out[i] != 0, first_bernoulli(p, seed, keys[i]))
            << "i=" << i;
      }
    }
  }
}

TEST(BulkRng, HypergeometricWaveMatchesScalar) {
  const std::uint64_t seed = 0x447EULL;
  struct Case {
    std::int64_t population, marked, sample;
  };
  // Small overlaps, the degenerate lo==hi range, and the large-parameter
  // regime whose lo-anchored pmf would underflow (the mode-anchored
  // inversion's reason to exist).
  const Case cases[] = {
      {100, 10, 10}, {5, 5, 5}, {50, 0, 25}, {100000, 3000, 3000}};
  for (const std::size_t n : kSizes) {
    const auto keys = scattered_keys(n);
    std::vector<std::uint64_t> scratch(n);
    std::vector<std::int64_t> out(n);
    for (const Case& c : cases) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " N=" << c.population
                                      << " m=" << c.marked
                                      << " k=" << c.sample);
      bulk_hypergeometric(c.population, c.marked, c.sample, seed, keys.data(),
                          n, scratch.data(), out.data());
      for (std::size_t i = 0; i < n; ++i) {
        Xoshiro256StarStar engine = make_stream(seed, keys[i]);
        ASSERT_EQ(out[i], hypergeometric(c.population, c.marked, c.sample,
                                         engine))
            << "i=" << i;
      }
    }
  }
}

// End-to-end wave consumer: the two-phase Monte Carlo's bulk
// hypergeometric path must reproduce the per-replica scalar engines
// exactly — same overlap moments, same cheat counts, bit for bit.
TEST(BulkRng, TwoPhaseMonteCarloBulkPathMatchesPerReplicaEngines) {
  parallel::ThreadPool pool(2);
  sim::MonteCarloConfig config;
  config.replicas = 4097;  // Not a multiple of any block size.
  config.master_seed = 0x770A5E2ULL;
  const std::int64_t task_count = 400;
  const std::int64_t adversary_work = 20;

  const sim::TwoPhaseAggregate bulk = sim::run_two_phase_monte_carlo(
      pool, task_count, adversary_work, config);

  // Scalar reference: per-replica engines folded through parallel_reduce,
  // whose block layout and fold order the bulk path must reproduce bit for
  // bit.
  const sim::TwoPhaseAggregate reference = sim::reference_two_phase_monte_carlo(
      pool, task_count, adversary_work, config,
      sim::TwoPhaseMethod::kHypergeometric);

  EXPECT_EQ(bulk.overlap.count(), reference.overlap.count());
  EXPECT_EQ(bulk.overlap.mean(), reference.overlap.mean());
  EXPECT_EQ(bulk.overlap.variance(), reference.overlap.variance());
  EXPECT_EQ(bulk.overlap.min(), reference.overlap.min());
  EXPECT_EQ(bulk.overlap.max(), reference.overlap.max());
  EXPECT_EQ(bulk.can_cheat.trials(), reference.can_cheat.trials());
  EXPECT_EQ(bulk.can_cheat.successes(), reference.can_cheat.successes());
}

TEST(BulkRng, TwoPhaseMonteCarloBulkPathValidatesArguments) {
  parallel::ThreadPool pool(1);
  sim::MonteCarloConfig config;
  config.replicas = 8;
  EXPECT_THROW(static_cast<void>(
                   sim::run_two_phase_monte_carlo(pool, 10, 11, config)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(
                   sim::run_two_phase_monte_carlo(pool, 0, 0, config)),
               std::invalid_argument);
}

}  // namespace
}  // namespace redund::rng
