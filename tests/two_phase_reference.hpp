// Reference simulation of one Appendix-A two-phase round, and a
// per-replica Monte Carlo driver over it.
//
// sim::run_two_phase_monte_carlo fills each block of replicas with one bulk
// hypergeometric pass. The oracles here are the scalar forms it must agree
// with: a round drawn either as one Hypergeometric(N, w, w) overlap or by
// materializing phase 2's deal, folded replica by replica through
// parallel::parallel_reduce (parallel_reduce.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "parallel/thread_pool.hpp"
#include "parallel_reduce.hpp"
#include "rng/distributions.hpp"
#include "rng/engines.hpp"
#include "sim/monte_carlo.hpp"

namespace redund::sim {

/// How the phase-2 overlap is generated.
enum class TwoPhaseMethod {
  kExplicitDeal,    ///< Materialize phase-2's random deal; count index < w.
  kHypergeometric,  ///< Draw the overlap directly from Hypergeometric(N,w,w).
};

/// Result of one two-phase round.
struct TwoPhaseResult {
  std::int64_t task_count = 0;        ///< N.
  std::int64_t adversary_work = 0;    ///< w per phase.
  std::int64_t fully_controlled = 0;  ///< Tasks she holds in both phases.

  [[nodiscard]] bool can_cheat() const noexcept { return fully_controlled > 0; }
};

/// Simulates one round: the adversary receives `adversary_work` of the N
/// phase-1 assignments and `adversary_work` of the N phase-2 assignments,
/// both uniformly without replacement.
[[nodiscard]] inline TwoPhaseResult run_two_phase(
    std::int64_t task_count, std::int64_t adversary_work,
    rng::Xoshiro256StarStar& engine,
    TwoPhaseMethod method = TwoPhaseMethod::kHypergeometric) {
  if (task_count < 1 || adversary_work < 0 || adversary_work > task_count) {
    throw std::invalid_argument(
        "run_two_phase: need 0 <= adversary_work <= task_count, "
        "task_count >= 1");
  }
  TwoPhaseResult result;
  result.task_count = task_count;
  result.adversary_work = adversary_work;

  if (method == TwoPhaseMethod::kHypergeometric) {
    // By symmetry her phase-1 tasks can be taken as {0..w-1}; the phase-2
    // deal hands her a uniform w-subset, so the overlap is hypergeometric.
    result.fully_controlled = rng::hypergeometric(
        task_count, adversary_work, adversary_work, engine);
    return result;
  }

  // Explicit deal: sample her phase-2 subset and count indices below w.
  const auto w = static_cast<std::uint64_t>(adversary_work);
  const auto phase2 = rng::sample_without_replacement(
      static_cast<std::uint64_t>(task_count), w, engine);
  for (const std::uint64_t task : phase2) {
    if (task < w) ++result.fully_controlled;
  }
  return result;
}

/// Runs `config.replicas` rounds, replica r on rng::make_stream(master_seed,
/// r), and folds them in replica order. With kHypergeometric it must equal
/// sim::run_two_phase_monte_carlo bit for bit.
[[nodiscard]] inline TwoPhaseAggregate reference_two_phase_monte_carlo(
    parallel::ThreadPool& pool, std::int64_t task_count,
    std::int64_t adversary_work, const MonteCarloConfig& config,
    TwoPhaseMethod method) {
  return parallel::parallel_reduce<TwoPhaseAggregate>(
      pool, static_cast<std::size_t>(config.replicas), TwoPhaseAggregate{},
      [&](std::size_t replica) {
        rng::Xoshiro256StarStar engine =
            rng::make_stream(config.master_seed, replica);
        const TwoPhaseResult result =
            run_two_phase(task_count, adversary_work, engine, method);
        TwoPhaseAggregate one;
        one.overlap.add(static_cast<double>(result.fully_controlled));
        one.can_cheat.add(result.can_cheat());
        return one;
      },
      [](TwoPhaseAggregate merged, const TwoPhaseAggregate& next) {
        merged.overlap.merge(next.overlap);
        merged.can_cheat.merge(next.can_cheat);
        return merged;
      });
}

}  // namespace redund::sim
