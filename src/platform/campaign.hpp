// End-to-end campaign orchestration: the supervisor's full loop.
//
//   enroll -> deal -> compute -> verify -> react -> report
//
// This is the operational layer the paper assumes around its mathematics:
// a supervisor distributes a realized redundancy plan to honest volunteers
// and adversary-controlled Sybil identities, collects result values,
// verifies by copy agreement (plus ringer ground truth), recomputes every
// task whose copies disagree, and — per the paper's Section 1
// caveat that detection "alerts the supervisor to the presence of an active
// adversary, allowing for potential reactive measures" — optionally
// blacklists caught identities and reassigns their outstanding work.
//
// Benign faults are modelled too (each honest unit is independently wrong
// with probability benign_error_rate), which is what motivates the
// Section-7 minimum-multiplicity floor: with every task at multiplicity
// >= 2, a single benign error surfaces as a mismatch instead of silently
// corrupting a singleton task.
#pragma once

#include <cstdint>
#include <vector>

#include "core/realize.hpp"
#include "platform/registry.hpp"
#include "platform/scheduler.hpp"
#include "rng/engines.hpp"
#include "sim/adversary.hpp"

namespace redund::platform {

/// Campaign parameters.
struct CampaignConfig {
  core::RealizedPlan plan;              ///< What to distribute.
  std::int64_t honest_participants = 0; ///< Honest identities to enroll.
  std::int64_t sybil_identities = 0;    ///< Adversary identities to enroll.
  sim::CheatStrategy strategy = sim::CheatStrategy::kAlwaysCheat;
  std::int64_t tuple_size = 1;          ///< For the tuple strategies.
  double benign_error_rate = 0.0;       ///< Honest per-unit error probability.
  bool reactive = true;                 ///< Blacklist + reassign on detection.
  std::uint64_t seed = 0xCA4461D;
};

/// What happened, from the supervisor's books and from ground truth.
struct CampaignReport {
  std::int64_t tasks = 0;
  std::int64_t units = 0;

  // Supervisor-visible outcomes.
  std::int64_t accepted_clean = 0;       ///< Copies agreed (or ringer OK).
  std::int64_t mismatches_detected = 0;  ///< Tasks whose copies disagreed.
  std::int64_t ringer_catches = 0;       ///< Ringers catching wrong values.
  std::int64_t supervisor_recomputes = 0;
  std::int64_t requeued_units = 0;
  std::int64_t blacklisted_identities = 0;

  // Ground-truth outcomes (what a simulation can additionally see).
  std::int64_t final_correct_tasks = 0;
  std::int64_t final_corrupt_tasks = 0;  ///< Wrong value in accepted output.
  std::int64_t adversary_cheat_attempts = 0;

  [[nodiscard]] bool alarm_fired() const noexcept {
    return mismatches_detected + ringer_catches > 0;
  }
  [[nodiscard]] double corruption_rate() const noexcept {
    return tasks > 0 ? static_cast<double>(final_corrupt_tasks) /
                           static_cast<double>(tasks)
                     : 0.0;
  }
};

/// Runs one full campaign. Deterministic given config.seed.
[[nodiscard]] CampaignReport run_campaign(const CampaignConfig& config);

/// Runs one campaign round against an existing registry (blacklist state
/// carries over). `round_seed` keys this round's randomness.
[[nodiscard]] CampaignReport run_campaign_round(const CampaignConfig& config,
                                                Registry& registry,
                                                std::uint64_t round_seed);

/// Runs `rounds` consecutive campaigns over a persistent registry — the
/// supervisor/adversary arms race. Identities are cheap (paper footnote 1:
/// SETI@home saw > 5,000 new user names in a day), so after each round the
/// adversary enrolls `sybil_replenishment` fresh identities to replace the
/// blacklisted ones. Each round distributes config.plan anew (a fresh batch
/// of N tasks). Returns one report per round.
[[nodiscard]] std::vector<CampaignReport> run_campaign_series(
    const CampaignConfig& config, std::int64_t rounds,
    std::int64_t sybil_replenishment);

}  // namespace redund::platform
