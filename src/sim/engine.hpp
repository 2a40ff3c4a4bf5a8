// Single-replica simulation engine.
//
// One replica simulates one full computation round: the assignment pool is
// dealt, the adversary's copies are a uniform random w-subset of the pool
// (w = round(proportion * total assignments)), she cheats per her strategy,
// and the supervisor verifies — a cheat is *detected* iff an honest copy of
// the task exists (held < multiplicity) or the task is a ringer whose answer
// the supervisor precomputed. A cheat that survives verification is a
// *successful* cheat: the computation's integrity is broken.
//
// The kernel samples per *class*: tasks with identical (multiplicity,
// is_ringer) are exchangeable, so an outer multivariate hypergeometric deals
// the adversary's picks across classes, and a nested one builds the
// held-count histogram within each class. O(#classes x max_multiplicity^2)
// per replica — independent of the task count N. The per-task samplers it
// is checked against live in tests/per_task_kernels.hpp.
//
// The hot-path entry point is run_replica_into + ReplicaScratch: counters
// accumulate into a caller-owned ReplicaResult and the class histogram
// lives in a reusable scratch workspace, so nothing allocates inside the
// replica loop.
#pragma once

#include <cstdint>
#include <vector>

#include "rng/engines.hpp"
#include "sim/adversary.hpp"
#include "sim/workload.hpp"

namespace redund::sim {

/// How the adversary's assignment subset is sampled. The class kernel is
/// the only one; the enum is kept only so callers that still name it
/// compile (see the run_replica_into overload that takes it).
enum class Allocation {
  kClassAggregated,
};

/// Outcome counters of one (or many merged) replica(s).
struct ReplicaResult {
  std::int64_t replicas = 0;              ///< Replicas merged in.
  std::int64_t adversary_assignments = 0; ///< w, summed over replicas.
  std::int64_t tasks_held = 0;            ///< Tasks with >= 1 adversary copy.
  std::int64_t cheat_attempts = 0;
  std::int64_t detected_cheats = 0;
  std::int64_t successful_cheats = 0;     ///< Undetected wrong results.
  std::int64_t fully_controlled_tasks = 0;///< held == multiplicity.
  /// Replicas in which >= 1 cheat was detected — the supervisor's alarm
  /// fires and reactive measures (paper Section 1) begin.
  std::int64_t replicas_with_detection = 0;
  /// Replicas in which >= 1 wrong result entered the accepted output.
  std::int64_t replicas_with_corruption = 0;

  /// attempts/detections by held-copy count; index = held (0 unused).
  std::vector<std::int64_t> attempts_by_held;
  std::vector<std::int64_t> detected_by_held;

  /// Overall empirical detection probability over all attempts.
  [[nodiscard]] double detection_rate() const noexcept {
    return cheat_attempts > 0 ? static_cast<double>(detected_cheats) /
                                    static_cast<double>(cheat_attempts)
                              : 0.0;
  }

  /// Empirical P_{k,p}: detection rate among attempts holding exactly k.
  [[nodiscard]] double detection_rate_at(std::int64_t held) const noexcept;

  /// Fraction of replicas in which the supervisor's alarm fired.
  [[nodiscard]] double alarm_probability() const noexcept {
    return replicas > 0 ? static_cast<double>(replicas_with_detection) /
                              static_cast<double>(replicas)
                        : 0.0;
  }

  /// Fraction of replicas whose accepted output contains >= 1 wrong result.
  [[nodiscard]] double corruption_probability() const noexcept {
    return replicas > 0 ? static_cast<double>(replicas_with_corruption) /
                              static_cast<double>(replicas)
                        : 0.0;
  }

  /// Merges another result into this one (counters add; vectors extend).
  /// Both histograms are resized to the common maximum width first, so a
  /// malformed input cannot desynchronize attempts from detections.
  void merge(const ReplicaResult& other);
};

/// Reusable per-thread working memory for run_replica_into. The buffer
/// grows to the workload's high-water mark on first use and is then reused:
/// with a scratch held across a replica loop, no replica allocates.
struct ReplicaScratch {
  std::vector<std::int64_t> histogram;  ///< Tasks per held level.
};

/// Runs one replica of the computation described by `workload` against
/// `adversary`, accumulating counters into `result` (histograms are widened
/// to the workload's max multiplicity if needed) and drawing working memory
/// from `scratch`. This is the allocation-free hot path.
void run_replica_into(ReplicaResult& result, const Workload& workload,
                      const AdversaryConfig& adversary,
                      rng::Xoshiro256StarStar& engine, ReplicaScratch& scratch);

/// Same as above; kept only so callers that still pass an Allocation
/// compile.
inline void run_replica_into(ReplicaResult& result, const Workload& workload,
                             const AdversaryConfig& adversary,
                             rng::Xoshiro256StarStar& engine,
                             Allocation /*allocation*/,
                             ReplicaScratch& scratch) {
  run_replica_into(result, workload, adversary, engine, scratch);
}

}  // namespace redund::sim
