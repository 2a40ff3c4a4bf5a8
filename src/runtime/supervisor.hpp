// Asynchronous supervisor runtime: executes a realized redundancy plan over
// simulated time (event-driven), instead of platform::Campaign's single
// synchronous enroll->deal->verify pass.
//
// The paper's Section 1 caveat — detection "alerts the supervisor to the
// presence of an active adversary, allowing for potential reactive
// measures" — presumes an operational substrate with *time* in it: copies
// straggle, results get lost, deadlines fire, the supervisor re-issues work
// and only then can it react. This module provides that substrate, modelled
// on the BOINC scheduler/transitioner/validator loop:
//
//   * per-participant latency/availability model (runtime/latency_model.hpp):
//     heterogeneous speeds, stragglers, no-reply dropouts;
//   * a work-issue loop with per-unit deadlines, bounded retries under
//     exponential backoff, and re-issue through
//     platform::Scheduler::try_reassign_unit (so the one-copy-per-identity
//     rule keeps holding across re-deals). The Scheduler owns the unit
//     table (each unit's task and assignee, each task's run of units); the
//     runtime reads it and keeps only runtime state beside it;
//   * a per-task transitioner/validator state machine
//     (runtime/task_state.hpp) with quorum agreement, ringer ground-truth
//     checks, and a trusted supervisor recompute for any task whose
//     copies still disagree once its replicas are exhausted;
//   * adaptive replication: per-identity reliability scores (EWMA over
//     timeouts and validated results) gate delayed extra replicas for
//     straggling tasks held by unreliable identities;
//   * a RuntimeReport (runtime/report.hpp) with totals, makespan, detection
//     latency, and an optional counter time series.
//
// Deterministic for a fixed RuntimeConfig::seed: every random draw comes
// from a SplitMix64-derived stream keyed by purpose and subject, and the
// pending events sit in a calendar queue whose ties resolve by schedule
// order (runtime/event_queue.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "control/controller.hpp"
#include "core/realize.hpp"
#include "platform/identity.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/fault.hpp"
#include "runtime/latency_model.hpp"
#include "runtime/report.hpp"
#include "sim/adversary.hpp"

namespace redund::runtime {

/// Deadline / retry policy of the work-issue loop.
struct RetryPolicy {
  /// First re-issue delay after a timeout; each further attempt multiplies
  /// it by kBackoffFactor (exponential backoff).
  static constexpr double kBackoffBase = 0.5;
  static constexpr double kBackoffFactor = 2.0;

  /// Per-unit report deadline measured from issue time. <= 0 selects the
  /// automatic deadline: LatencyModel::kNetworkDelay + 4 *
  /// LatencyModel::kMeanService * expected queue depth (units /
  /// participants, at least 1).
  double deadline = 0.0;
  /// Re-issues allowed per unit before the supervisor recomputes it itself.
  std::int64_t max_retries = 3;
};

/// Reliability-score-gated adaptive replication. Straggling tasks are
/// reviewed every half of the campaign's starting effective deadline.
struct AdaptiveConfig {
  /// Replicate a straggling task when the mean reliability score of the
  /// identities holding its outstanding copies falls below this floor.
  static constexpr double kReliabilityFloor = 0.4;
  /// Score dynamics: start value, gain toward 1 on a validated-correct
  /// result, multiplicative decay on a timeout or rejected result.
  static constexpr double kScoreInit = 0.7;
  static constexpr double kScoreGain = 0.1;
  static constexpr double kScoreLoss = 0.3;

  /// Cap on extra replicas per task (adaptive + INCONCLUSIVE combined).
  static constexpr std::int64_t kMaxExtraReplicas = 2;

  bool enabled = true;
};

/// Campaign health monitoring and graceful degradation.
///
/// The monitor runs as a periodic kHealthCheck event, every two starting
/// effective deadlines. At each check it folds the progress made since the
/// previous check (completions, supervisor recomputes, validations) into
/// an EWMA progress rate and tracks the live-fleet low-water mark. A
/// campaign is declared *stalled* — CampaignOutcome::kStalled, partial
/// report — when kStallChecks consecutive checks observe zero progress
/// while no completion is in flight (nothing pending that could produce
/// any).
struct HealthConfig {
  /// Consecutive zero-progress reviews (with nothing in flight) that
  /// declare the campaign stalled.
  static constexpr std::int64_t kStallChecks = 3;
  /// EWMA smoothing factor for the progress rate.
  static constexpr double kEwmaAlpha = 0.3;

  /// Supervisor recomputes allowed per campaign; < 0 is unlimited (the
  /// pre-fault-model behaviour, where recompute guarantees termination).
  /// With a finite budget, a unit whose budget ran out parks until the
  /// health monitor ends the campaign.
  std::int64_t recompute_budget = -1;
  /// Hard bound on simulated time; the campaign aborts
  /// (CampaignOutcome::kAborted) when the next event lies beyond it.
  /// <= 0 disables the bound.
  double max_sim_time = 0.0;
};

/// Journaling (crash safety): a digest log that resume verifies its
/// re-run against. See runtime/journal.hpp.
struct JournalOptions {
  /// Journal file path; empty disables journaling.
  std::string path;
  /// Events processed between digest (`H`) records.
  std::int64_t checkpoint_interval = 4096;
  /// No-op: nothing reads it. Kept only so callers that still assign it
  /// compile.
  std::int64_t full_snapshot_every = 8;
  /// No-op: nothing reads it. Kept only so callers that still assign it
  /// compile.
  bool wal = true;
};

/// Full configuration of one asynchronous campaign.
struct RuntimeConfig {
  core::RealizedPlan plan;               ///< What to distribute.
  std::int64_t honest_participants = 0;  ///< Honest identities to enroll.
  std::int64_t sybil_identities = 0;     ///< Adversary identities to enroll.
  sim::CheatStrategy strategy = sim::CheatStrategy::kAlwaysCheat;
  std::int64_t tuple_size = 1;           ///< For the tuple strategies.
  double benign_error_rate = 0.0;        ///< Honest per-unit error prob.
  bool reactive = true;                  ///< Blacklist + requeue on catch.
  LatencyModel latency;
  RetryPolicy retry;
  AdaptiveConfig adaptive;
  /// Online adaptive redundancy controller (src/control/): estimates the
  /// adversary fraction from validator outcomes and re-plans the
  /// remaining units' multiplicity mix on a kReplan cadence. Disabled by
  /// default; a disabled controller changes nothing about the campaign.
  control::ControlConfig control;
  /// Timed fault injection (empty = no faults). Validated against the
  /// enrolled fleet at campaign start.
  FaultSchedule faults;
  HealthConfig health;
  JournalOptions journal;
  /// Counter sampling period for RuntimeReport::series (0 disables).
  double sample_interval = 0.0;
  /// No-op: nothing reads it, and the config fingerprint skips it. The
  /// loop always runs on CalendarQueue. Kept only so callers that still
  /// assign it compile.
  QueueKind queue = QueueKind::kCalendar;
  std::uint64_t seed = 0xA57C0DEULL;
};

/// Runs one asynchronous campaign until every task is VALID or the health
/// monitor ends it (RuntimeReport::outcome records which). Deterministic
/// given config.seed; throws std::invalid_argument on bad parameters.
[[nodiscard]] RuntimeReport run_async_campaign(const RuntimeConfig& config);

/// Like run_async_campaign, but stops — as if the supervisor process were
/// killed — once `max_events` events have been processed (batch
/// granularity: the cap is checked between same-timestamp batches).
/// Returns nullopt when the cap hit first. With journaling configured, a
/// digest record is written at the kill (a graceful SIGTERM; a hard crash
/// would leave the journal at its last periodic digest, which only
/// shortens what resume verifies).
[[nodiscard]] std::optional<RuntimeReport> run_async_campaign_capped(
    const RuntimeConfig& config, std::int64_t max_events);

/// Resumes a campaign from config.journal.path by re-running it from its
/// seed, rewriting the journal as it goes, and checking the re-run's
/// event-stream digests (and terminal record, if any) against the ones
/// recorded. The resulting report is bit-identical to the uninterrupted
/// run's. Throws std::runtime_error when the journal is unreadable, of
/// another format version, belongs to a different config/seed, or
/// records a digest the re-run does not reproduce ("journal replay
/// divergence").
[[nodiscard]] RuntimeReport resume_async_campaign(const RuntimeConfig& config);

}  // namespace redund::runtime
