// Per-task reference kernels for the class-aggregated replica kernel.
//
// sim::run_replica_into samples held-copy counts per exchangeability
// class. The two samplers here draw the same joint law task by task and
// are the exactness references it is checked against:
//  * kSequentialHypergeometric — walks the tasks class by class, drawing
//    each task's held count from the exact conditional hypergeometric law;
//    O(task count), no pool materialization.
//  * kPoolShuffle — materializes the assignment multiset and samples the
//    adversary's subset by partial Fisher-Yates; O(total assignments).
// Both keep their draw order, so the counters pinned in
// ClassKernel.AllocationsPinnedOnMixedWorkload hold.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "rng/distributions.hpp"
#include "rng/engines.hpp"
#include "sim/adversary.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace redund::sim {

/// Which sampler draws the adversary's held-copy counts.
enum class Kernel {
  kClassAggregated,  ///< The library's kernel (sim::run_replica_into).
  kSequentialHypergeometric,
  kPoolShuffle,
};

/// Per-task held-copy counts via sequential conditional hypergeometric
/// sampling: after deciding tasks 0..t-1, task t's held count given the
/// remaining picks is Hypergeometric(remaining pool, m_t, remaining picks).
/// Tasks are numbered in class order (see Workload).
inline void sample_held_hypergeometric(const Workload& workload,
                                       std::int64_t picks,
                                       rng::Xoshiro256StarStar& engine,
                                       std::vector<std::int64_t>& held) {
  std::int64_t remaining_pool = workload.total_assignments();
  std::int64_t remaining_picks = picks;
  held.assign(static_cast<std::size_t>(workload.task_count()), 0);
  std::size_t t = 0;
  for (const TaskClass& cls : workload.classes()) {
    const std::int64_t m = cls.multiplicity;
    for (std::int64_t i = 0; i < cls.count; ++i, ++t) {
      if (remaining_picks <= 0) return;
      const std::int64_t h =
          rng::hypergeometric(remaining_pool, m, remaining_picks, engine);
      held[t] = h;
      remaining_pool -= m;
      remaining_picks -= h;
    }
  }
}

/// Per-task held-copy counts by materializing the assignment pool and
/// sampling a uniform w-subset with partial Fisher-Yates. The pool buffer
/// is caller-owned scratch, rebuilt in place without reallocation.
inline void sample_held_pool(const Workload& workload, std::int64_t picks,
                             rng::Xoshiro256StarStar& engine,
                             std::vector<std::int64_t>& held,
                             std::vector<std::uint32_t>& pool) {
  pool.clear();
  pool.reserve(static_cast<std::size_t>(workload.total_assignments()));
  std::uint32_t t = 0;
  for (const TaskClass& cls : workload.classes()) {
    for (std::int64_t i = 0; i < cls.count; ++i, ++t) {
      pool.insert(pool.end(), static_cast<std::size_t>(cls.multiplicity), t);
    }
  }
  held.assign(static_cast<std::size_t>(workload.task_count()), 0);
  const auto n = static_cast<std::uint64_t>(pool.size());
  const auto w = static_cast<std::uint64_t>(picks);
  for (std::uint64_t i = 0; i < w && i < n; ++i) {
    const std::uint64_t j = i + rng::uniform_below(n - i, engine);
    std::swap(pool[i], pool[j]);
    ++held[pool[i]];
  }
}

/// Verification pass over per-task held counts (the two per-task kernels).
inline void tally_per_task(ReplicaResult& result, const Workload& workload,
                           const AdversaryConfig& adversary,
                           const std::vector<std::int64_t>& held) {
  std::size_t t = 0;
  for (const TaskClass& cls : workload.classes()) {
    for (std::int64_t i = 0; i < cls.count; ++i, ++t) {
      const std::int64_t h = held[t];
      if (h < 1) continue;
      ++result.tasks_held;
      if (h == cls.multiplicity) ++result.fully_controlled_tasks;
      if (!adversary.should_cheat(h)) continue;

      ++result.cheat_attempts;
      ++result.attempts_by_held[static_cast<std::size_t>(h)];
      // Detection: an honest copy exists, or the supervisor knows the answer.
      const bool detected = h < cls.multiplicity || cls.is_ringer;
      if (detected) {
        ++result.detected_cheats;
        ++result.detected_by_held[static_cast<std::size_t>(h)];
      } else {
        ++result.successful_cheats;
      }
    }
  }
}

/// One replica on `kernel`, with the same bookkeeping as
/// sim::run_replica_into (picks = round(proportion x total assignments),
/// histograms widened to the workload's max multiplicity, the alarm and
/// corruption replica counts). References, not hot paths: every call
/// allocates its working memory.
inline void run_kernel_into(ReplicaResult& result, const Workload& workload,
                            const AdversaryConfig& adversary,
                            rng::Xoshiro256StarStar& engine, Kernel kernel) {
  if (kernel == Kernel::kClassAggregated) {
    ReplicaScratch scratch;
    run_replica_into(result, workload, adversary, engine, scratch);
    return;
  }
  const auto total = static_cast<double>(workload.total_assignments());
  const auto picks =
      static_cast<std::int64_t>(std::llround(adversary.proportion * total));
  const auto width = static_cast<std::size_t>(workload.max_multiplicity() + 1);
  result.attempts_by_held.resize(
      std::max(result.attempts_by_held.size(), width), 0);
  result.detected_by_held.resize(
      std::max(result.detected_by_held.size(), width), 0);
  const std::int64_t detected_before = result.detected_cheats;
  const std::int64_t successful_before = result.successful_cheats;
  result.replicas += 1;
  result.adversary_assignments += picks;

  std::vector<std::int64_t> held;
  std::vector<std::uint32_t> pool;
  if (kernel == Kernel::kPoolShuffle) {
    sample_held_pool(workload, picks, engine, held, pool);
  } else {
    sample_held_hypergeometric(workload, picks, engine, held);
  }
  tally_per_task(result, workload, adversary, held);

  if (result.detected_cheats > detected_before) {
    ++result.replicas_with_detection;
  }
  if (result.successful_cheats > successful_before) {
    ++result.replicas_with_corruption;
  }
}

/// Runs one replica on `kernel` into a fresh result.
[[nodiscard]] inline ReplicaResult run_replica(
    const Workload& workload, const AdversaryConfig& adversary,
    rng::Xoshiro256StarStar& engine,
    Kernel kernel = Kernel::kClassAggregated) {
  ReplicaResult result;
  run_kernel_into(result, workload, adversary, engine, kernel);
  return result;
}

}  // namespace redund::sim
