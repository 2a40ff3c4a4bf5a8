#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "core/contracts.hpp"
#include "rng/distributions.hpp"

namespace redund::sim {

double ReplicaResult::detection_rate_at(std::int64_t held) const noexcept {
  if (held < 1 || held >= static_cast<std::int64_t>(attempts_by_held.size())) {
    return 0.0;
  }
  const auto attempts = attempts_by_held[static_cast<std::size_t>(held)];
  if (attempts == 0) return 0.0;
  return static_cast<double>(detected_by_held[static_cast<std::size_t>(held)]) /
         static_cast<double>(attempts);
}

void ReplicaResult::merge(const ReplicaResult& other) {
  replicas += other.replicas;
  adversary_assignments += other.adversary_assignments;
  tasks_held += other.tasks_held;
  cheat_attempts += other.cheat_attempts;
  detected_cheats += other.detected_cheats;
  successful_cheats += other.successful_cheats;
  fully_controlled_tasks += other.fully_controlled_tasks;
  replicas_with_detection += other.replicas_with_detection;
  replicas_with_corruption += other.replicas_with_corruption;
  // Both histograms grow to the common maximum: a malformed input whose two
  // vectors disagree in length must not leave this result desynchronized
  // (or index out of bounds below).
  const std::size_t width =
      std::max({attempts_by_held.size(), detected_by_held.size(),
                other.attempts_by_held.size(), other.detected_by_held.size()});
  attempts_by_held.resize(width, 0);
  detected_by_held.resize(width, 0);
  for (std::size_t k = 0; k < other.attempts_by_held.size(); ++k) {
    attempts_by_held[k] += other.attempts_by_held[k];
  }
  for (std::size_t k = 0; k < other.detected_by_held.size(); ++k) {
    detected_by_held[k] += other.detected_by_held[k];
  }
}

namespace {

/// Widens the result's histograms (preserving counts) so held index `m` is
/// addressable.
void ensure_width(ReplicaResult& result, std::int64_t max_multiplicity) {
  const auto width = static_cast<std::size_t>(max_multiplicity + 1);
  if (result.attempts_by_held.size() < width) {
    result.attempts_by_held.resize(width, 0);
  }
  if (result.detected_by_held.size() < width) {
    result.detected_by_held.resize(width, 0);
  }
}

/// Held-count histogram of one exchangeability class: `hist[j]` = number of
/// tasks of the class of which the adversary holds exactly j copies, given
/// that she holds `class_picks` of the class's count x m assignments.
///
/// Exact sampling in O(m^2), independent of the class's task count: view
/// the class's assignments as m "copy columns" of `count` items each (copy
/// 1 of every task, copy 2, ...). A uniform subset of the class pool
/// induces (a) multivariate-hypergeometric column totals and (b), given
/// those totals, independent uniform task subsets per column. Columns are
/// then merged into the coverage histogram: each column's picks distribute
/// over the current coverage levels as another multivariate hypergeometric,
/// promoting u tasks from level j to j+1.
void sample_class_histogram(const TaskClass& cls, std::int64_t class_picks,
                            rng::Xoshiro256StarStar& engine,
                            std::vector<std::int64_t>& hist) {
  const std::int64_t m = cls.multiplicity;
  hist.assign(static_cast<std::size_t>(m + 1), 0);
  hist[0] = cls.count;
  std::int64_t left = class_picks;
  for (std::int64_t col = 0; col < m && left > 0; ++col) {
    // Items remaining across columns col..m-1; this column holds `count`.
    const std::int64_t items_left = (m - col) * cls.count;
    const std::int64_t in_column =
        col + 1 < m ? rng::hypergeometric(items_left, cls.count, left, engine)
                    : left;  // Last column takes the remainder exactly.
    left -= in_column;
    if (in_column == 0) continue;

    // Distribute this column's picked tasks over coverage levels col..0.
    // Levels above `col` cannot exist yet; iterating downward means the
    // +1 promotion lands in an already-processed level, so each level's
    // size is read exactly once, unmodified.
    std::int64_t unconsidered = cls.count;
    std::int64_t picks_left = in_column;
    for (std::int64_t j = col; j >= 0 && picks_left > 0; --j) {
      const std::int64_t level_size = hist[static_cast<std::size_t>(j)];
      const std::int64_t promoted =
          j > 0 ? rng::hypergeometric(unconsidered, level_size, picks_left,
                                      engine)
                : picks_left;  // Level 0 absorbs the remainder exactly.
      unconsidered -= level_size;
      picks_left -= promoted;
      hist[static_cast<std::size_t>(j)] -= promoted;
      hist[static_cast<std::size_t>(j + 1)] += promoted;
    }
  }

#if REDUND_ENABLE_INVARIANTS
  // Conservation after the promotion cascade: the histogram still covers
  // every task in the class, and total coverage (Σ j·hist[j]) equals the
  // picks dealt into the class.
  std::int64_t task_total = 0;
  std::int64_t coverage_total = 0;
  for (std::size_t j = 0; j < hist.size(); ++j) {
    task_total += hist[j];
    coverage_total += static_cast<std::int64_t>(j) * hist[j];
  }
  REDUND_INVARIANT(task_total == cls.count,
                   "class histogram levels sum to the class task count");
  REDUND_INVARIANT(coverage_total == class_picks,
                   "class histogram coverage (sum j*hist[j]) equals the "
                   "picks dealt into the class");
#endif
}

/// Verification pass over one class's held-count histogram: within a class
/// every task at held level k has the same multiplicity and ringer flag, so
/// the cheat decision and detection are all-or-nothing per level.
void tally_class(ReplicaResult& result, const TaskClass& cls,
                 const AdversaryConfig& adversary,
                 const std::vector<std::int64_t>& hist) {
  const std::int64_t m = cls.multiplicity;
  for (std::int64_t k = 1; k <= m; ++k) {
    const std::int64_t n_k = hist[static_cast<std::size_t>(k)];
    if (n_k == 0) continue;
    result.tasks_held += n_k;
    if (k == m) result.fully_controlled_tasks += n_k;
    if (!adversary.should_cheat(k)) continue;
    result.cheat_attempts += n_k;
    result.attempts_by_held[static_cast<std::size_t>(k)] += n_k;
    const bool detected = k < m || cls.is_ringer;
    if (detected) {
      result.detected_cheats += n_k;
      result.detected_by_held[static_cast<std::size_t>(k)] += n_k;
    } else {
      result.successful_cheats += n_k;
    }
  }
}

/// Class-aggregated replica: outer sequential multivariate hypergeometric
/// deals the adversary's picks across exchangeability classes; within each
/// class the nested sampler builds the held-count histogram. Never touches
/// per-task state.
void run_replica_class_aggregated(ReplicaResult& result,
                                  const Workload& workload,
                                  const AdversaryConfig& adversary,
                                  std::int64_t picks,
                                  rng::Xoshiro256StarStar& engine,
                                  ReplicaScratch& scratch) {
  std::int64_t remaining_pool = workload.total_assignments();
  std::int64_t remaining_picks = picks;
  for (const TaskClass& cls : workload.classes()) {
    if (remaining_picks <= 0) break;
    const std::int64_t in_class =
        remaining_pool > cls.assignments
            ? rng::hypergeometric(remaining_pool, cls.assignments,
                                  remaining_picks, engine)
            : remaining_picks;  // Last class takes the remainder exactly.
    remaining_pool -= cls.assignments;
    remaining_picks -= in_class;
    if (in_class == 0) continue;
    sample_class_histogram(cls, in_class, engine, scratch.histogram);
    tally_class(result, cls, adversary, scratch.histogram);
  }
}

}  // namespace

void run_replica_into(ReplicaResult& result, const Workload& workload,
                      const AdversaryConfig& adversary,
                      rng::Xoshiro256StarStar& engine,
                      ReplicaScratch& scratch) {
  const auto total = workload.total_assignments();
  const auto picks = static_cast<std::int64_t>(
      std::llround(adversary.proportion * static_cast<double>(total)));

  ensure_width(result, workload.max_multiplicity());
  const std::int64_t detected_before = result.detected_cheats;
  const std::int64_t successful_before = result.successful_cheats;

  result.replicas += 1;
  result.adversary_assignments += picks;

  run_replica_class_aggregated(result, workload, adversary, picks, engine,
                               scratch);

  if (result.detected_cheats > detected_before) {
    ++result.replicas_with_detection;
  }
  if (result.successful_cheats > successful_before) {
    ++result.replicas_with_corruption;
  }
}

}  // namespace redund::sim
