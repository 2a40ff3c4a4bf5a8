#include "platform/campaign.hpp"

#include <algorithm>
#include <set>
#include <span>
#include <stdexcept>
#include <vector>

#include "rng/distributions.hpp"

namespace redund::platform {

namespace {

/// Ground-truth result of a task: a keyed hash, so honest computation is
/// deterministic and the supervisor can recompute it at will.
std::uint64_t truth_value(std::uint64_t seed, std::int64_t task) {
  rng::SplitMix64 mixer(seed ^ (0x9E3779B97F4A7C15ULL *
                                static_cast<std::uint64_t>(task + 1)));
  return mixer();
}

/// The colluders' agreed wrong value for a task: identical across all their
/// copies (the paper's cheating model), distinct from the truth.
std::uint64_t collusion_value(std::uint64_t seed, std::int64_t task) {
  return truth_value(seed, task) ^ 0xBAD0BEEFCAFEF00DULL;
}

}  // namespace

namespace {

void validate_config(const CampaignConfig& config) {
  if (config.honest_participants < 1) {
    throw std::invalid_argument(
        "run_campaign: need at least one honest participant");
  }
  if (config.sybil_identities < 0 || config.benign_error_rate < 0.0 ||
      config.benign_error_rate >= 1.0) {
    throw std::invalid_argument("run_campaign: bad adversary/error settings");
  }
}

}  // namespace

CampaignReport run_campaign(const CampaignConfig& config) {
  validate_config(config);
  Registry registry;
  for (std::int64_t i = 0; i < config.honest_participants; ++i) {
    registry.enroll(Principal::kHonest);
  }
  if (config.sybil_identities > 0) {
    registry.enroll_sybils(config.sybil_identities);
  }
  return run_campaign_round(config, registry, config.seed);
}

std::vector<CampaignReport> run_campaign_series(const CampaignConfig& config,
                                                std::int64_t rounds,
                                                std::int64_t sybil_replenishment) {
  validate_config(config);
  if (rounds < 1 || sybil_replenishment < 0) {
    throw std::invalid_argument(
        "run_campaign_series: rounds >= 1, replenishment >= 0");
  }
  Registry registry;
  for (std::int64_t i = 0; i < config.honest_participants; ++i) {
    registry.enroll(Principal::kHonest);
  }
  if (config.sybil_identities > 0) {
    registry.enroll_sybils(config.sybil_identities);
  }
  std::vector<CampaignReport> reports;
  reports.reserve(static_cast<std::size_t>(rounds));
  for (std::int64_t round = 0; round < rounds; ++round) {
    if (round > 0 && sybil_replenishment > 0) {
      registry.enroll_sybils(sybil_replenishment);
    }
    reports.push_back(run_campaign_round(
        config, registry,
        config.seed ^ (0x9E3779B97F4A7C15ULL *
                       static_cast<std::uint64_t>(round + 1))));
  }
  return reports;
}

CampaignReport run_campaign_round(const CampaignConfig& config,
                                  Registry& registry,
                                  std::uint64_t round_seed) {
  Scheduler scheduler(config.plan);
  auto engine = rng::make_stream(round_seed, 0);
  scheduler.deal(registry, engine);

  const auto task_count = static_cast<std::size_t>(scheduler.task_count());
  const auto unit_count = static_cast<std::size_t>(scheduler.unit_count());

  CampaignReport report;
  report.tasks = scheduler.task_count();
  report.units = scheduler.unit_count();

  // The adversary's collective view: copies held per task across all Sybils.
  std::vector<std::int64_t> adversary_held(task_count, 0);
  for (std::size_t u = 0; u < unit_count; ++u) {
    if (registry.record(scheduler.assignee_of(u)).principal ==
        Principal::kAdversary) {
      ++adversary_held[scheduler.task_of(u)];
    }
  }
  const sim::AdversaryConfig decision{.proportion = 0.0,
                                      .strategy = config.strategy,
                                      .tuple_size = config.tuple_size};
  std::vector<char> adversary_cheats(task_count, 0);
  for (std::size_t t = 0; t < task_count; ++t) {
    if (adversary_held[t] > 0 &&
        decision.should_cheat(adversary_held[t])) {
      adversary_cheats[t] = 1;
      ++report.adversary_cheat_attempts;
    }
  }

  // --- Compute phase. `lying` controls whether Sybils still execute the
  // collusion plan (they stop once the alarm has fired and reaction began).
  std::vector<std::uint64_t> values(unit_count, 0);
  const auto compute_unit = [&](std::size_t u, bool lying) {
    const std::uint32_t task = scheduler.task_of(u);
    const std::uint64_t truth = truth_value(round_seed, task);
    const ParticipantRecord& record =
        registry.record(scheduler.assignee_of(u));
    std::uint64_t value = truth;
    if (record.principal == Principal::kAdversary) {
      if (lying && adversary_cheats[task]) {
        value = collusion_value(round_seed, task);
      }
    } else if (config.benign_error_rate > 0.0) {
      // Per-unit stream so requeues stay deterministic.
      auto unit_engine = rng::make_stream(round_seed ^ 0xE44EULL, u);
      if (rng::bernoulli(config.benign_error_rate, unit_engine)) {
        // Uncoordinated corruption: unique per unit, never the collusion
        // value and never the truth.
        value = truth ^ (0x1ULL + (unit_engine() | 0x2ULL));
      }
    }
    values[u] = value;
  };
  for (std::size_t u = 0; u < unit_count; ++u) compute_unit(u, true);

  // --- Verify phase. Returns the identities caught submitting a value the
  // supervisor concluded was wrong; fills per-task accepted values.
  std::vector<std::uint64_t> accepted(task_count, 0);
  std::set<ParticipantId> flagged;

  const auto verify_task = [&](std::size_t t, bool allow_flagging) {
    const std::uint64_t truth = truth_value(round_seed, static_cast<std::int64_t>(t));
    const std::span<const std::uint32_t> unit_indices = scheduler.run(t);

    const bool ringer = scheduler.is_ringer(t);
    if (!ringer) {
      bool all_equal = true;
      for (const std::uint32_t u : unit_indices) {
        all_equal &= values[u] == values[unit_indices.front()];
      }
      if (all_equal) {
        accepted[t] = values[unit_indices.front()];
        ++report.accepted_clean;
        return;
      }
      ++report.mismatches_detected;
      ++report.supervisor_recomputes;
    }

    // A ringer's answer is known outright and a contested task is
    // recomputed: the truth is accepted, and every copy that differs from
    // it is caught.
    accepted[t] = truth;
    bool caught = false;
    for (const std::uint32_t u : unit_indices) {
      if (values[u] != truth) {
        caught = true;
        if (allow_flagging) flagged.insert(scheduler.assignee_of(u));
      }
    }
    if (ringer && caught) ++report.ringer_catches;
  };
  for (std::size_t t = 0; t < task_count; ++t) verify_task(t, true);

  // --- Reaction phase: blacklist caught identities, requeue their work,
  // and re-verify the affected tasks (no further flagging; the point is to
  // restore output integrity once the alarm has fired).
  if (config.reactive && !flagged.empty()) {
    std::set<std::size_t> affected_tasks;
    for (const ParticipantId id : flagged) {
      registry.blacklist(id);
      ++report.blacklisted_identities;
    }
    for (const ParticipantId id : flagged) {
      const auto requeued = scheduler.reassign_from(id, registry, engine);
      report.requeued_units += static_cast<std::int64_t>(requeued.size());
      for (const std::size_t u : requeued) {
        compute_unit(u, /*lying=*/false);
        affected_tasks.insert(scheduler.task_of(u));
      }
    }
    for (const std::size_t t : affected_tasks) {
      // Re-resolution of a previously resolved task: recount from scratch.
      // (Counters for mismatches/recomputes intentionally accumulate — the
      // supervisor really did the work twice.)
      verify_task(t, false);
    }
  }

  // --- Ground-truth audit of the accepted output.
  for (std::size_t t = 0; t < task_count; ++t) {
    const std::uint64_t truth = truth_value(round_seed, static_cast<std::int64_t>(t));
    if (accepted[t] == truth) {
      ++report.final_correct_tasks;
    } else {
      ++report.final_corrupt_tasks;
    }
  }
  return report;
}

}  // namespace redund::platform
