#include "platform/scheduler.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "rng/distributions.hpp"

namespace redund::platform {

Scheduler::Scheduler(const core::RealizedPlan& plan) {
  for (std::size_t i = 0; i < plan.counts.size(); ++i) {
    const auto multiplicity = static_cast<std::int64_t>(i + 1);
    for (std::int64_t t = 0; t < plan.counts[i]; ++t) {
      tasks_.push_back({multiplicity, false});
    }
  }
  for (std::int64_t r = 0; r < plan.ringer_count; ++r) {
    tasks_.push_back({plan.ringer_multiplicity, true});
  }
  std::int64_t total_units = 0;
  for (const TaskInfo& task : tasks_) total_units += task.multiplicity;
  units_.reserve(static_cast<std::size_t>(total_units));
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    for (std::int64_t c = 0; c < tasks_[t].multiplicity; ++c) {
      units_.push_back({static_cast<std::int64_t>(t), 0});
    }
  }
  holders_by_task_.resize(tasks_.size());
}

bool Scheduler::holds_(ParticipantId participant, std::int64_t task) const {
  const auto& holders = holders_by_task_[static_cast<std::size_t>(task)];
  return std::find(holders.begin(), holders.end(), participant) !=
         holders.end();
}

void Scheduler::record_hold_(ParticipantId participant, std::int64_t task) {
  holders_by_task_[static_cast<std::size_t>(task)].push_back(participant);
}

void Scheduler::drop_hold_(ParticipantId participant, std::int64_t task) {
  auto& holders = holders_by_task_[static_cast<std::size_t>(task)];
  const auto it = std::find(holders.begin(), holders.end(), participant);
  if (it != holders.end()) {
    // Membership-only index: unordered, so swap-pop suffices.
    *it = holders.back();
    holders.pop_back();
  }
}

void Scheduler::deal(Registry& registry, rng::Xoshiro256StarStar& engine) {
  for (std::size_t t = 0; t < tasks_.size(); ++t) {
    holders_by_task_[t].clear();
    holders_by_task_[t].reserve(
        static_cast<std::size_t>(tasks_[t].multiplicity));
  }

  std::vector<ParticipantId> active;
  std::int64_t max_multiplicity = 0;
  for (const auto& record : registry.records()) {
    if (!record.blacklisted) active.push_back(record.id);
  }
  for (const TaskInfo& task : tasks_) {
    max_multiplicity = std::max(max_multiplicity, task.multiplicity);
  }
  if (static_cast<std::int64_t>(active.size()) < max_multiplicity) {
    throw std::invalid_argument(
        "Scheduler::deal: need at least max-multiplicity active identities "
        "to honour the one-copy-per-identity rule");
  }

  rng::shuffle(std::span<WorkUnit>(units_), engine);
  rng::shuffle(std::span<ParticipantId>(active), engine);

  std::size_t cursor = 0;
  for (WorkUnit& unit : units_) {
    // Hoisted once per unit: holds_() would re-index holders_by_task_ on
    // every candidate probe of the round-robin below.
    const std::vector<ParticipantId>& holders =
        holders_by_task_[static_cast<std::size_t>(unit.task)];
    // Round-robin with skip: try up to |active| identities.
    for (std::size_t tries = 0; tries < active.size(); ++tries) {
      const ParticipantId candidate = active[cursor];
      cursor = (cursor + 1) % active.size();
      bool held = false;
      for (const ParticipantId holder : holders) held |= holder == candidate;
      if (!held) {
        unit.assignee = candidate;
        record_hold_(candidate, unit.task);
        registry.record(candidate).assignments_completed += 1;
        break;
      }
      if (tries + 1 == active.size()) {
        throw std::runtime_error(
            "Scheduler::deal: could not place a unit without violating the "
            "one-copy rule");
      }
    }
  }
}

namespace {

/// Uniform pick over the active identities minus `excluded` (tiny,
/// active-only, duplicate-free; sorted in place here) — without
/// materializing the eligible list. Ids are dense record indices, so the
/// eligible list in record order is just the ascending ids with two
/// sorted exclusion lists (the registry's blacklist index and `excluded`)
/// punched out; the k-th eligible id falls out of one order-statistics
/// walk over those lists. Draws uniform_below with exactly the count the
/// materialized scan produced, so the chosen identity is bit-identical —
/// at O(blacklisted + excluded) instead of O(identities x holders).
std::optional<ParticipantId> pick_active_excluding(
    const Registry& registry, std::vector<ParticipantId>& excluded,
    rng::Xoshiro256StarStar& engine) {
  const std::int64_t eligible =
      registry.active_count() - static_cast<std::int64_t>(excluded.size());
  if (eligible <= 0) return std::nullopt;
  std::sort(excluded.begin(), excluded.end());
  std::uint64_t cursor =
      rng::uniform_below(static_cast<std::uint64_t>(eligible), engine);
  // Every excluded id at or below the cursor shifts it one id higher.
  // The two lists are disjoint (excluded holds no blacklisted id), so the
  // merged ascending walk visits each exclusion exactly once.
  const std::vector<ParticipantId>& black = registry.blacklisted_ids();
  std::size_t bi = 0;
  std::size_t ei = 0;
  while (bi < black.size() || ei < excluded.size()) {
    const bool from_black =
        bi < black.size() &&
        (ei >= excluded.size() || black[bi] < excluded[ei]);
    const ParticipantId at = from_black ? black[bi] : excluded[ei];
    if (static_cast<std::uint64_t>(at) > cursor) break;
    ++cursor;
    if (from_black) {
      ++bi;
    } else {
      ++ei;
    }
  }
  return static_cast<ParticipantId>(cursor);
}

}  // namespace

std::optional<ParticipantId> Scheduler::try_reassign_unit(
    std::size_t unit_index, Registry& registry,
    rng::Xoshiro256StarStar& engine) {
  if (unit_index >= units_.size()) {
    throw std::out_of_range("Scheduler::try_reassign_unit: bad unit index");
  }
  WorkUnit& unit = units_[unit_index];
  // The exclusion set is the current assignee plus the task's holders —
  // a handful of ids. Blacklisted ones are dropped (the blacklist index
  // already excludes them); the assignee is usually a holder too, so the
  // membership probe also deduplicates.
  std::vector<ParticipantId>& excluded = eligible_scratch_;
  excluded.clear();
  const auto exclude_active = [&](ParticipantId id) {
    if (registry.record(id).blacklisted) return;
    for (const ParticipantId seen : excluded) {
      if (seen == id) return;
    }
    excluded.push_back(id);
  };
  exclude_active(unit.assignee);
  for (const ParticipantId holder :
       holders_by_task_[static_cast<std::size_t>(unit.task)]) {
    exclude_active(holder);
  }
  const std::optional<ParticipantId> next =
      pick_active_excluding(registry, excluded, engine);
  if (!next) return std::nullopt;
  drop_hold_(unit.assignee, unit.task);
  unit.assignee = *next;
  record_hold_(*next, unit.task);
  registry.record(*next).assignments_completed += 1;
  return next;
}

std::optional<std::size_t> Scheduler::try_add_replica(
    std::int64_t task, Registry& registry, rng::Xoshiro256StarStar& engine) {
  if (task < 0 || task >= task_count()) {
    throw std::out_of_range("Scheduler::try_add_replica: bad task index");
  }
  // Holders are unique per task (one-copy rule) and the holder index
  // never retains a blacklisted id past its leave, but the cheap filter
  // keeps this path safe against either invariant loosening.
  std::vector<ParticipantId>& excluded = eligible_scratch_;
  excluded.clear();
  for (const ParticipantId holder :
       holders_by_task_[static_cast<std::size_t>(task)]) {
    if (!registry.record(holder).blacklisted) excluded.push_back(holder);
  }
  const std::optional<ParticipantId> assignee =
      pick_active_excluding(registry, excluded, engine);
  if (!assignee) return std::nullopt;
  units_.push_back({task, *assignee});
  record_hold_(*assignee, task);
  registry.record(*assignee).assignments_completed += 1;
  return units_.size() - 1;
}

std::vector<std::size_t> Scheduler::reassign_from(
    ParticipantId from, Registry& registry, rng::Xoshiro256StarStar& engine) {
  std::vector<ParticipantId> active;
  for (const auto& record : registry.records()) {
    if (!record.blacklisted) active.push_back(record.id);
  }
  if (active.empty()) {
    throw std::runtime_error("Scheduler::reassign_from: nobody left to work");
  }
  rng::shuffle(std::span<ParticipantId>(active), engine);

  std::vector<std::size_t> reassigned;
  std::size_t cursor = 0;
  for (std::size_t u = 0; u < units_.size(); ++u) {
    WorkUnit& unit = units_[u];
    if (unit.assignee != from) continue;
    drop_hold_(from, unit.task);
    for (std::size_t tries = 0; tries < active.size(); ++tries) {
      const ParticipantId candidate = active[cursor];
      cursor = (cursor + 1) % active.size();
      if (!holds_(candidate, unit.task)) {
        unit.assignee = candidate;
        record_hold_(candidate, unit.task);
        registry.record(candidate).assignments_completed += 1;
        reassigned.push_back(u);
        break;
      }
      if (tries + 1 == active.size()) {
        throw std::runtime_error(
            "Scheduler::reassign_from: could not place a reassigned unit");
      }
    }
  }
  return reassigned;
}

}  // namespace redund::platform
