#include "platform/scheduler.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>

#include "rng/distributions.hpp"

namespace redund::platform {

Scheduler::Scheduler(const core::RealizedPlan& plan,
                     std::int64_t replica_budget)
    : replica_budget_(replica_budget) {
  // The lanes hold 32-bit unit and task indices (and the runtime's event
  // subjects are 32-bit), so count what the plan needs first — saturating,
  // min(kLimit, acc + count * each) — and refuse it before allocating.
  static constexpr std::int64_t kLimit =
      std::numeric_limits<std::int32_t>::max();
  const auto grow = [](std::int64_t acc, std::int64_t count,
                       std::int64_t each) {
    if (count <= 0 || each <= 0) return acc;
    if (count >= kLimit || each >= kLimit) return kLimit;
    return std::min(kLimit, acc + count * each);
  };
  std::int64_t tasks = grow(0, plan.ringer_count, 1);
  std::int64_t units = grow(0, plan.ringer_count, plan.ringer_multiplicity);
  for (std::size_t i = 0; i < plan.counts.size(); ++i) {
    tasks = grow(tasks, plan.counts[i], 1);
    units = grow(units, plan.counts[i], static_cast<std::int64_t>(i + 1));
  }
  const std::int64_t slots = grow(units, tasks, replica_budget);
  if (replica_budget < 0 || slots >= kLimit || tasks >= kLimit) {
    throw std::invalid_argument(
        "Scheduler: unit slots (units plus the per-task replica budget) and "
        "tasks must each stay below 2^31 - 1 (32-bit lanes); the replica "
        "budget must be >= 0");
  }

  task_.reserve(static_cast<std::size_t>(slots));
  assignee_.reserve(static_cast<std::size_t>(slots));
  run_begin_.reserve(static_cast<std::size_t>(tasks) + 1);
  std::uint32_t begin = 0;
  const auto add_tasks = [&](std::int64_t count, std::int64_t multiplicity) {
    multiplicity = std::max<std::int64_t>(multiplicity, 0);
    for (std::int64_t k = 0; k < count; ++k) {
      const auto t = static_cast<std::uint32_t>(run_begin_.size());
      run_begin_.push_back(begin);
      begin += static_cast<std::uint32_t>(multiplicity + replica_budget);
      task_.insert(task_.end(), static_cast<std::size_t>(multiplicity), t);
    }
    if (count > 0) {
      max_multiplicity_ = std::max(max_multiplicity_, multiplicity);
    }
  };
  for (std::size_t i = 0; i < plan.counts.size(); ++i) {
    add_tasks(plan.counts[i], static_cast<std::int64_t>(i + 1));
  }
  ringer_begin_ = run_begin_.size();
  add_tasks(plan.ringer_count, plan.ringer_multiplicity);
  run_begin_.push_back(begin);
  run_size_.assign(run_begin_.size() - 1, 0);
  assignee_.assign(task_.size(), 0);
  slots_.resize(begin);
}

void Scheduler::deal(const Registry& registry,
                     rng::Xoshiro256StarStar& engine) {
  std::vector<ParticipantId> active;
  for (const auto& record : registry.records()) {
    if (!record.blacklisted) active.push_back(record.id);
  }
  if (static_cast<std::int64_t>(active.size()) < max_multiplicity_) {
    throw std::invalid_argument(
        "Scheduler::deal: need at least max-multiplicity active identities "
        "to honour the one-copy-per-identity rule");
  }

  rng::shuffle(std::span<std::uint32_t>(task_), engine);
  rng::shuffle(std::span<ParticipantId>(active), engine);

  // Runs refill in unit order, so each task's run holds exactly the units
  // already dealt when the next one is probed.
  std::fill(run_size_.begin(), run_size_.end(), 0U);
  std::size_t cursor = 0;
  for (std::size_t u = 0; u < task_.size(); ++u) {
    const std::uint32_t t = task_[u];
    // Hoisted once per unit: the round-robin below probes it per candidate.
    const std::span<const std::uint32_t> holders = run(t);
    // Round-robin with skip: try up to |active| identities.
    for (std::size_t tries = 0; tries < active.size(); ++tries) {
      const ParticipantId candidate = active[cursor];
      cursor = (cursor + 1) % active.size();
      bool held = false;
      for (const std::uint32_t h : holders) held |= assignee_[h] == candidate;
      if (!held) {
        assignee_[u] = candidate;
        slots_[run_begin_[t] + run_size_[t]++] = static_cast<std::uint32_t>(u);
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
    std::size_t unit_index, const Registry& registry,
    rng::Xoshiro256StarStar& engine) {
  if (unit_index >= task_.size()) {
    throw std::out_of_range("Scheduler::try_reassign_unit: bad unit index");
  }
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
  exclude_active(assignee_[unit_index]);
  for (const std::uint32_t u : run(task_[unit_index])) {
    exclude_active(assignee_[u]);
  }
  const std::optional<ParticipantId> next =
      pick_active_excluding(registry, excluded, engine);
  if (!next) return std::nullopt;
  assignee_[unit_index] = *next;
  return next;
}

std::optional<std::size_t> Scheduler::try_add_replica(
    std::int64_t task, const Registry& registry,
    rng::Xoshiro256StarStar& engine) {
  if (task < 0 || task >= task_count()) {
    throw std::out_of_range("Scheduler::try_add_replica: bad task index");
  }
  const auto t = static_cast<std::size_t>(task);
  if (run_begin_[t] + run_size_[t] == run_begin_[t + 1]) {
    throw std::length_error(
        "Scheduler::try_add_replica: the task's replica budget is spent");
  }
  // Holders are unique per task (one-copy rule), but a blacklisted holder
  // stays in the run; the pick already excludes it, so it is filtered out
  // here to keep the eligible count exact.
  std::vector<ParticipantId>& excluded = eligible_scratch_;
  excluded.clear();
  for (const std::uint32_t u : run(t)) {
    if (!registry.record(assignee_[u]).blacklisted) {
      excluded.push_back(assignee_[u]);
    }
  }
  const std::optional<ParticipantId> assignee =
      pick_active_excluding(registry, excluded, engine);
  if (!assignee) return std::nullopt;
  const std::size_t u = task_.size();
  task_.push_back(static_cast<std::uint32_t>(t));
  assignee_.push_back(*assignee);
  slots_[run_begin_[t] + run_size_[t]++] = static_cast<std::uint32_t>(u);
  return u;
}

std::vector<std::size_t> Scheduler::reassign_from(
    ParticipantId from, const Registry& registry,
    rng::Xoshiro256StarStar& engine) {
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
  for (std::size_t u = 0; u < task_.size(); ++u) {
    if (assignee_[u] != from) continue;
    for (std::size_t tries = 0; tries < active.size(); ++tries) {
      const ParticipantId candidate = active[cursor];
      cursor = (cursor + 1) % active.size();
      // The moving unit itself is skipped: `from` no longer counts as a
      // holder of its task.
      bool held = false;
      for (const std::uint32_t h : run(task_[u])) {
        held |= h != u && assignee_[h] == candidate;
      }
      if (!held) {
        assignee_[u] = candidate;
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
