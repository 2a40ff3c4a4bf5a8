// Work-unit scheduling: how the supervisor deals the assignment multiset to
// registered identities.
//
// Implements the standard fielded rule (BOINC-style): no identity receives
// two copies of the same task. Crucially, the rule binds per *identity* —
// an adversary principal operating many Sybil identities walks straight
// through it, which is exactly why the paper treats "the adversary controls
// k copies of a task" as the threat unit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/realize.hpp"
#include "platform/registry.hpp"
#include "rng/engines.hpp"

namespace redund::platform {

/// One copy of one task, as handed to a participant.
struct WorkUnit {
  std::int64_t task = 0;          ///< Dense task index.
  ParticipantId assignee = 0;     ///< Identity holding this copy.
};

/// Immutable description of one task in the campaign.
struct TaskInfo {
  std::int64_t multiplicity = 0;
  bool is_ringer = false;
};

/// Builds the task list and assignment multiset of a realized plan and
/// deals every unit to the active identities.
class Scheduler {
 public:
  /// Materializes tasks and units from `plan` (real tasks first, then
  /// ringers, matching sim::Workload's layout).
  explicit Scheduler(const core::RealizedPlan& plan);

  /// Deals all units: units are shuffled, then offered to active identities
  /// round-robin; an identity already holding a copy of the unit's task is
  /// skipped (the one-copy-per-identity rule). Requires at least
  /// max-multiplicity active identities. Populates units().
  void deal(Registry& registry, rng::Xoshiro256StarStar& engine);

  /// Reassigns every unit currently held by `from` to active *honest-so-far*
  /// identities (used by the supervisor's reactive path after blacklisting;
  /// the replacement identity is chosen round-robin among non-blacklisted
  /// identities, still honouring the one-copy rule). Returns the indices of
  /// the reassigned units.
  std::vector<std::size_t> reassign_from(ParticipantId from,
                                         Registry& registry,
                                         rng::Xoshiro256StarStar& engine);

  /// Moves the single unit `unit_index` to an active identity other than
  /// its current holder, honouring the one-copy rule (used by the async
  /// runtime's timeout re-issue path). The replacement is drawn uniformly
  /// among eligible identities. Returns the new assignee, or nullopt —
  /// leaving the unit untouched — when no active identity can take it.
  std::optional<ParticipantId> try_reassign_unit(
      std::size_t unit_index, Registry& registry,
      rng::Xoshiro256StarStar& engine);

  /// Appends one extra copy (replica) of `task` and deals it to an active
  /// identity not already holding a copy, drawn uniformly among eligible
  /// identities (the async runtime's adaptive/INCONCLUSIVE replication).
  /// Returns the new unit's index, or nullopt when every active identity
  /// already holds the task.
  std::optional<std::size_t> try_add_replica(std::int64_t task,
                                             Registry& registry,
                                             rng::Xoshiro256StarStar& engine);

  [[nodiscard]] const std::vector<TaskInfo>& tasks() const noexcept {
    return tasks_;
  }
  [[nodiscard]] const std::vector<WorkUnit>& units() const noexcept {
    return units_;
  }
  [[nodiscard]] std::int64_t task_count() const noexcept {
    return static_cast<std::int64_t>(tasks_.size());
  }
  [[nodiscard]] std::int64_t unit_count() const noexcept {
    return static_cast<std::int64_t>(units_.size());
  }

 private:
  /// True iff `participant` already holds a copy of `task`.
  [[nodiscard]] bool holds_(ParticipantId participant, std::int64_t task) const;
  void record_hold_(ParticipantId participant, std::int64_t task);
  void drop_hold_(ParticipantId participant, std::int64_t task);

  std::vector<TaskInfo> tasks_;
  std::vector<WorkUnit> units_;
  // holders_by_task_[t] = identities currently holding a copy of task t,
  // unordered. A task has at most multiplicity + replicas holders, so a
  // membership probe is a short linear scan over one cache line — the
  // per-participant sorted index this replaces cost a binary search over
  // hundreds of entries on every deal offer.
  std::vector<std::vector<ParticipantId>> holders_by_task_;
  std::vector<ParticipantId> eligible_scratch_;  ///< Reused by try_* paths.
};

}  // namespace redund::platform
