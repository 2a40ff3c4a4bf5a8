// Parallel Monte Carlo driver.
//
// Runs many independent replicas of a simulation across a thread pool with
// per-replica engines split deterministically from one master seed
// (rng::make_stream), then merges per-replica results in replica order —
// so the aggregate is bit-identical for any thread count.
#pragma once

#include <cstdint>

#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/engines.hpp"
#include "sim/engine.hpp"
#include "stats/accumulator.hpp"

namespace redund::sim {

/// Monte Carlo configuration.
struct MonteCarloConfig {
  std::int64_t replicas = 1000;
  std::uint64_t master_seed = 0x5EEDBA5EBA11ULL;
};

/// Runs `config.replicas` replicas of `workload` vs `adversary` on `pool`
/// and returns the merged counters. Throws std::invalid_argument, before
/// any replica, when `config.replicas` is below 1 or `adversary.proportion`
/// is not in [0, 1).
[[nodiscard]] ReplicaResult run_monte_carlo(
    parallel::ThreadPool& pool, const Workload& workload,
    const AdversaryConfig& adversary, const MonteCarloConfig& config);

/// Aggregated two-phase results (Appendix A).
struct TwoPhaseAggregate {
  stats::Accumulator overlap;         ///< Fully controlled tasks per replica.
  stats::BernoulliCounter can_cheat;  ///< Replicas with >= 1 such task.
};

/// Runs `config.replicas` independent two-phase rounds of N =
/// `task_count` tasks in which the adversary receives `adversary_work` of
/// each phase's N assignments (see sim/two_phase.hpp). Replica r's overlap
/// is one Hypergeometric(N, w, w) draw from rng::make_stream(master_seed,
/// r). Throws std::invalid_argument when `config.replicas` is below 1 or
/// unless 0 <= adversary_work <= task_count and task_count >= 1.
[[nodiscard]] TwoPhaseAggregate run_two_phase_monte_carlo(
    parallel::ThreadPool& pool, std::int64_t task_count,
    std::int64_t adversary_work, const MonteCarloConfig& config);

}  // namespace redund::sim
