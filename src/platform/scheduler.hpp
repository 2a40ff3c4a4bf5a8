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
#include <span>
#include <vector>

#include "core/realize.hpp"
#include "platform/registry.hpp"
#include "rng/engines.hpp"

namespace redund::platform {

/// The campaign's unit table and its one-copy scheduling rule. It is the
/// only owner of which task each unit copies and who holds it: a 32-bit
/// task lane and a 32-bit assignee lane indexed by unit, and per task a
/// run of its unit indices (CSR), sized at construction for the task's
/// multiplicity plus a replica budget, so replicas append in place.
class Scheduler {
 public:
  /// Materializes tasks and units from `plan` (real tasks first, then
  /// ringers, matching sim::Workload's layout). `replica_budget` is how
  /// many try_add_replica copies each task may gain on top of its
  /// multiplicity. Throws std::invalid_argument, before allocating any
  /// lane, when the unit slots (units plus every task's budget) or the
  /// tasks would not stay below 2^31 - 1, or the budget is negative.
  explicit Scheduler(const core::RealizedPlan& plan,
                     std::int64_t replica_budget = 0);

  /// Deals all units: units are shuffled, then offered to active identities
  /// round-robin; an identity already holding a copy of the unit's task is
  /// skipped (the one-copy-per-identity rule). Requires at least
  /// max-multiplicity active identities. Fills the assignee lane and every
  /// task's run, in ascending unit order.
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

  /// Appends one extra copy (replica) of `task` to the unit table and its
  /// run, dealt to an active identity not already holding a copy, drawn
  /// uniformly among eligible identities (the async runtime's
  /// adaptive/INCONCLUSIVE replication). Returns the new unit's index, or
  /// nullopt when every active identity already holds the task. Throws
  /// std::length_error, before any draw, when the task's replica budget
  /// is spent.
  std::optional<std::size_t> try_add_replica(std::int64_t task,
                                             Registry& registry,
                                             rng::Xoshiro256StarStar& engine);

  /// Task and current assignee of unit `u`.
  [[nodiscard]] std::uint32_t task_of(std::size_t u) const {
    return task_[u];
  }
  [[nodiscard]] ParticipantId assignee_of(std::size_t u) const {
    return assignee_[u];
  }
  /// The two lanes whole, indexed by unit.
  [[nodiscard]] std::span<const std::uint32_t> task_lane() const noexcept {
    return task_;
  }
  [[nodiscard]] std::span<const ParticipantId> assignee_lane() const noexcept {
    return assignee_;
  }
  /// Unit indices of task `t`: its dealt units in ascending order, then
  /// its replicas in the order they were added.
  [[nodiscard]] std::span<const std::uint32_t> run(std::size_t t) const {
    return {slots_.data() + run_begin_[t], run_size_[t]};
  }
  [[nodiscard]] std::int64_t multiplicity(std::size_t t) const {
    return static_cast<std::int64_t>(run_begin_[t + 1] - run_begin_[t]) -
           replica_budget_;
  }
  [[nodiscard]] bool is_ringer(std::size_t t) const noexcept {
    return t >= ringer_begin_;
  }
  [[nodiscard]] std::int64_t task_count() const noexcept {
    return static_cast<std::int64_t>(run_size_.size());
  }
  [[nodiscard]] std::int64_t unit_count() const noexcept {
    return static_cast<std::int64_t>(task_.size());
  }

 private:
  std::vector<std::uint32_t> task_;        ///< Owning task per unit.
  std::vector<ParticipantId> assignee_;    ///< Current holder per unit.
  std::vector<std::uint32_t> run_begin_;   ///< Run start per task, + end.
  std::vector<std::uint32_t> run_size_;    ///< Units in each task's run.
  std::vector<std::uint32_t> slots_;       ///< Every task's run, flat.
  std::int64_t replica_budget_ = 0;
  std::int64_t max_multiplicity_ = 0;
  std::size_t ringer_begin_ = 0;           ///< First ringer task.
  std::vector<ParticipantId> eligible_scratch_;  ///< Reused by try_* paths.
};

}  // namespace redund::platform
