// Workload construction for the volunteer-computing simulator.
//
// A workload is the supervisor-side view of one computation: the task
// multiset implied by a realized redundancy plan (real tasks, the tail
// partition, and precomputed ringers), stored as its exchangeability
// classes. Task t is the t-th task of the classes taken in order, so a
// kernel that needs per-task state walks classes() with an inner loop over
// each class's count; nothing is stored per task.
#pragma once

#include <cstdint>
#include <vector>

#include "core/realize.hpp"

namespace redund::sim {

/// One equivalence class of tasks: all tasks sharing (multiplicity,
/// is_ringer) are exchangeable under the adversary's uniform pick of
/// assignments, so per-replica sampling can work on classes instead of
/// tasks (sim/engine.hpp — O(#classes), not O(N)).
struct TaskClass {
  std::int64_t multiplicity = 0;  ///< Copies of each task in the pool.
  bool is_ringer = false;         ///< Supervisor precomputed the answer.
  std::int64_t count = 0;        ///< Tasks in this class.
  std::int64_t assignments = 0;  ///< count * multiplicity.
};

/// The task multiset as its classes, plus cached totals.
class Workload {
 public:
  Workload() = default;

  /// Builds from explicit counts: counts[i-1] tasks of multiplicity i, plus
  /// `ringer_count` ringers of multiplicity `ringer_multiplicity`.
  Workload(const std::vector<std::int64_t>& counts, std::int64_t ringer_count,
           std::int64_t ringer_multiplicity);

  /// Builds the workload a RealizedPlan deploys.
  explicit Workload(const core::RealizedPlan& plan)
      : Workload(plan.counts, plan.ringer_count, plan.ringer_multiplicity) {}

  [[nodiscard]] std::int64_t task_count() const noexcept {
    return task_count_;
  }
  [[nodiscard]] std::int64_t total_assignments() const noexcept {
    return total_assignments_;
  }
  [[nodiscard]] std::int64_t ringer_count() const noexcept {
    return ringer_count_;
  }
  /// Exchangeability classes, in ascending multiplicity with the ringer
  /// class (if any) last. Their counts sum to task_count().
  [[nodiscard]] const std::vector<TaskClass>& classes() const noexcept {
    return classes_;
  }
  /// Largest multiplicity of any task (0 for an empty workload).
  [[nodiscard]] std::int64_t max_multiplicity() const noexcept {
    return max_multiplicity_;
  }

 private:
  std::vector<TaskClass> classes_;
  std::int64_t task_count_ = 0;
  std::int64_t total_assignments_ = 0;
  std::int64_t ringer_count_ = 0;
  std::int64_t max_multiplicity_ = 0;
};

}  // namespace redund::sim
