#include "sim/monte_carlo.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "rng/bulk.hpp"

namespace redund::sim {

namespace {

/// Rejects a replica count below 1 before it is cast to a size.
void require_replicas(const MonteCarloConfig& config, const char* caller) {
  if (config.replicas < 1) {
    throw std::invalid_argument(std::string(caller) +
                                ": replicas must be >= 1, got " +
                                std::to_string(config.replicas));
  }
}

}  // namespace

ReplicaResult run_monte_carlo(parallel::ThreadPool& pool,
                              const Workload& workload,
                              const AdversaryConfig& adversary,
                              const MonteCarloConfig& config,
                              Allocation allocation) {
  require_replicas(config, "run_monte_carlo");
  return parallel::parallel_reduce_blocks<ReplicaResult>(
      pool, static_cast<std::size_t>(config.replicas), ReplicaResult{},
      [&](std::size_t begin, std::size_t end) {
        // One scratch workspace per worker thread, reused across every block
        // that thread claims: the replica loop is allocation-free once each
        // buffer hits its high-water mark.
        thread_local ReplicaScratch scratch;
        ReplicaResult partial;
        for (std::size_t replica = begin; replica < end; ++replica) {
          // A replica consumes a data-dependent number of draws (full
          // campaign sim), so the wave kernels cannot batch this stream.
          // redund-lint: allow(scalar-draw-in-wave)
          auto engine = rng::make_stream(config.master_seed, replica);
          run_replica_into(partial, workload, adversary, engine, allocation,
                           scratch);
        }
        return partial;
      },
      [](ReplicaResult merged, const ReplicaResult& next) {
        merged.merge(next);
        return merged;
      });
}

TwoPhaseAggregate run_two_phase_monte_carlo(parallel::ThreadPool& pool,
                                            std::int64_t task_count,
                                            std::int64_t adversary_work,
                                            const MonteCarloConfig& config,
                                            TwoPhaseMethod method) {
  require_replicas(config, "run_two_phase_monte_carlo");
  const auto combine = [](TwoPhaseAggregate merged,
                          const TwoPhaseAggregate& next) {
    merged.overlap.merge(next.overlap);
    merged.can_cheat.merge(next.can_cheat);
    return merged;
  };

  if (method == TwoPhaseMethod::kHypergeometric) {
    // Replica r's engine is make_stream(master_seed, r) and the
    // hypergeometric inversion consumes exactly one uniform from it, so
    // each block's overlaps can be filled by one bulk first_draw pass over
    // the contiguous key range [begin, end) — byte-identical to the scalar
    // per-replica engines, folded in the same replica order.
    if (task_count < 1 || adversary_work < 0 || adversary_work > task_count) {
      throw std::invalid_argument(
          "run_two_phase: need 0 <= adversary_work <= task_count, "
          "task_count >= 1");
    }
    return parallel::parallel_reduce_blocks<TwoPhaseAggregate>(
        pool, static_cast<std::size_t>(config.replicas), TwoPhaseAggregate{},
        [&](std::size_t begin, std::size_t end) {
          thread_local std::vector<std::uint64_t> keys;
          thread_local std::vector<std::uint64_t> scratch;
          thread_local std::vector<std::int64_t> overlaps;
          const std::size_t n = end - begin;
          keys.resize(n);
          scratch.resize(n);
          overlaps.resize(n);
          for (std::size_t i = 0; i < n; ++i) keys[i] = begin + i;
          rng::bulk_hypergeometric(task_count, adversary_work, adversary_work,
                                   config.master_seed, keys.data(), n,
                                   scratch.data(), overlaps.data());
          // Fold through one-sample aggregates, exactly as the per-replica
          // reduce does: Accumulator's singleton merge and its add() round
          // differently in the last bit, and the aggregate is pinned.
          TwoPhaseAggregate partial;
          for (std::size_t i = 0; i < n; ++i) {
            TwoPhaseAggregate one;
            one.overlap.add(static_cast<double>(overlaps[i]));
            one.can_cheat.add(overlaps[i] > 0);
            partial.overlap.merge(one.overlap);
            partial.can_cheat.merge(one.can_cheat);
          }
          return partial;
        },
        combine);
  }

  return parallel::parallel_reduce<TwoPhaseAggregate>(
      pool, static_cast<std::size_t>(config.replicas), TwoPhaseAggregate{},
      [&](std::size_t replica) {
        rng::Xoshiro256StarStar engine =
            rng::make_stream(config.master_seed, replica);
        const TwoPhaseResult result =
            run_two_phase(task_count, adversary_work, engine, method);
        TwoPhaseAggregate aggregate;
        aggregate.overlap.add(static_cast<double>(result.fully_controlled));
        aggregate.can_cheat.add(result.can_cheat());
        return aggregate;
      },
      combine);
}

}  // namespace redund::sim
