// Outcome record of one asynchronous campaign: totals, time-domain metrics,
// and an optional time series of the supervisor's counters.
//
// Everything here is a pure function of the RuntimeConfig (including its
// seed): print() renders with fixed formatting so two runs with the same
// seed produce byte-identical output — the reproducibility contract the
// tests and `redundctl run-async` rely on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "report/table.hpp"

namespace redund::runtime {

/// How a campaign ended. Ordered by severity — ShardedSupervisor::merge
/// takes the maximum across shards.
enum class CampaignOutcome : std::uint8_t {
  kCompleted = 0,  ///< Every task reached VALID.
  kStalled = 1,    ///< Progress ceased with nothing in flight (e.g. fleet
                   ///< collapse + recompute budget spent); partial report.
  kAborted = 2,    ///< The max_sim_time bound elapsed; partial report.
};

/// Stable display name ("completed", "stalled", "aborted").
[[nodiscard]] const char* to_string(CampaignOutcome outcome) noexcept;

/// One sampled point of the supervisor's counters (cumulative values).
struct RuntimeSample {
  double time = 0.0;
  std::int64_t units_issued = 0;
  std::int64_t units_completed = 0;
  std::int64_t units_timed_out = 0;
  std::int64_t units_reissued = 0;
  std::int64_t tasks_valid = 0;
  std::int64_t control_boosts = 0;    ///< Cumulative controller escalations.
  std::int64_t control_releases = 0;  ///< Cumulative controller releases.
};

/// What happened, from the supervisor's books and from ground truth.
struct RuntimeReport {
  // Shape of the campaign.
  std::int64_t tasks = 0;
  std::int64_t units_planned = 0;    ///< Copies in the realized plan.
  std::int64_t participants = 0;
  std::int64_t stragglers = 0;       ///< Ground truth (model injection).

  // Work-issue loop.
  std::int64_t units_issued = 0;     ///< Issues incl. retries and replicas.
  std::int64_t units_completed = 0;  ///< Results arriving before deadline.
  std::int64_t units_timed_out = 0;  ///< Deadline fired first.
  std::int64_t units_reissued = 0;   ///< Successful re-deals after timeout.
  std::int64_t units_dropped = 0;    ///< No-reply faults (ground truth).
  std::int64_t late_results = 0;     ///< Arrived after their timeout; ignored.

  // Replication and validation.
  std::int64_t adaptive_replicas = 0;   ///< Reliability-gated extra copies.
  std::int64_t quorum_replicas = 0;     ///< INCONCLUSIVE-path extra copies.
  std::int64_t supervisor_recomputes = 0;
  std::int64_t tasks_valid = 0;
  std::int64_t tasks_inconclusive = 0;  ///< Tasks whose copies disagreed.
  std::int64_t mismatches_detected = 0;
  std::int64_t ringer_catches = 0;
  std::int64_t blacklisted_identities = 0;

  // Online adaptive control (all zero when the controller is disabled).
  std::int64_t replan_rounds = 0;     ///< kReplan reviews that re-planned.
  std::int64_t control_boosts = 0;    ///< Controller-escalated extra copies.
  std::int64_t control_releases = 0;  ///< Escalated copies given back.
  std::int64_t control_observations = 0;  ///< Verdicts fed to the posterior.
  double p_hat_mean = 0.0;   ///< Posterior mean of the adversary fraction
                             ///< at campaign end.
  double p_hat_upper = 0.0;  ///< Upper credible limit at campaign end.

  // Ground truth.
  std::int64_t adversary_cheat_attempts = 0;
  std::int64_t false_accusations = 0;
  std::int64_t final_correct_tasks = 0;  ///< Among validated tasks only.
  std::int64_t final_corrupt_tasks = 0;  ///< Among validated tasks only.

  // Fault injection and degradation (all zero without a FaultSchedule).
  CampaignOutcome outcome = CampaignOutcome::kCompleted;
  std::int64_t tasks_unfinished = 0;   ///< Non-VALID at end (partial runs).
  std::int64_t fault_events = 0;       ///< Fault start/end events processed.
  std::int64_t churn_leaves = 0;       ///< Participant leave transitions.
  std::int64_t churn_rejoins = 0;      ///< Participant rejoin transitions.
  std::int64_t results_lost = 0;       ///< In-flight results lost to churn
                                       ///< or message-loss windows.
  std::int64_t results_corrupted = 0;  ///< Results bit-flipped in transit.
  std::int64_t duplicate_results = 0;  ///< Extra deliveries scheduled.
  std::int64_t min_live_fleet = 0;     ///< Low-water mark of active
                                       ///< (non-blacklisted) identities.
  double progress_rate = 0.0;          ///< EWMA of work progress per unit
                                       ///< time, from the health monitor.

  // Time domain.
  double makespan = 0.0;               ///< Last task validation time.
  double end_time = 0.0;               ///< Simulated time the loop ended
                                       ///< (>= makespan on partial runs).
  double first_detection_time = 0.0;   ///< 0 when nothing was detected.
  double mean_detection_latency = 0.0; ///< Mean detection-event time.
  std::int64_t detections = 0;         ///< Detection events (tasks+ringers).
  std::int64_t events_processed = 0;   ///< Event-loop throughput accounting.

  std::vector<RuntimeSample> series;   ///< Empty when sampling disabled.

  [[nodiscard]] bool alarm_fired() const noexcept { return detections > 0; }
  [[nodiscard]] double corruption_rate() const noexcept {
    return tasks > 0 ? static_cast<double>(final_corrupt_tasks) /
                           static_cast<double>(tasks)
                     : 0.0;
  }
};

/// How ShardedSupervisor::merge folds one report field across shards.
enum class Merge : std::uint8_t {
  kSum,     ///< Shards partition the fleet, so their counts add.
  kMax,     ///< The campaign is as late (or as sick) as its worst shard.
  kByHand,  ///< Weighted means and the first detection: merge folds these.
};

/// What for_each_field tells its visitor about one scalar field.
struct FieldInfo {
  const char* name;     ///< Row name in to_table.
  Merge merge;          ///< Shard-merge rule.
  bool starts_section;  ///< to_table draws a separator before the row.
};

/// The one list of RuntimeReport's scalar fields. Calls
/// f(info, report.field...) once per field, across every report passed,
/// in fingerprint and print order. A new field is one line here; to_table,
/// report_fingerprint and ShardedSupervisor::merge pick it up from this
/// list.
template <typename F, typename... Reports>
void for_each_field(F&& f, Reports&... reports) {
  const auto field = [&](const char* name, Merge merge, bool starts_section,
                         [[maybe_unused]] auto member) {
    f(FieldInfo{name, merge, starts_section}, (reports.*member)...);
  };
  using R = RuntimeReport;
  constexpr Merge kSum = Merge::kSum;
  constexpr Merge kMax = Merge::kMax;
  constexpr Merge kByHand = Merge::kByHand;
  field("tasks", kSum, false, &R::tasks);
  field("units_planned", kSum, false, &R::units_planned);
  field("participants", kSum, false, &R::participants);
  field("stragglers", kSum, false, &R::stragglers);
  field("units_issued", kSum, true, &R::units_issued);
  field("units_completed", kSum, false, &R::units_completed);
  field("units_timed_out", kSum, false, &R::units_timed_out);
  field("units_reissued", kSum, false, &R::units_reissued);
  field("units_dropped", kSum, false, &R::units_dropped);
  field("late_results", kSum, false, &R::late_results);
  field("adaptive_replicas", kSum, true, &R::adaptive_replicas);
  field("quorum_replicas", kSum, false, &R::quorum_replicas);
  field("supervisor_recomputes", kSum, false, &R::supervisor_recomputes);
  field("tasks_valid", kSum, false, &R::tasks_valid);
  field("tasks_inconclusive", kSum, false, &R::tasks_inconclusive);
  field("mismatches_detected", kSum, false, &R::mismatches_detected);
  field("ringer_catches", kSum, false, &R::ringer_catches);
  field("blacklisted_identities", kSum, false, &R::blacklisted_identities);
  field("replan_rounds", kSum, true, &R::replan_rounds);
  field("control_boosts", kSum, false, &R::control_boosts);
  field("control_releases", kSum, false, &R::control_releases);
  field("control_observations", kSum, false, &R::control_observations);
  field("p_hat_mean", kByHand, false, &R::p_hat_mean);
  field("p_hat_upper", kByHand, false, &R::p_hat_upper);
  field("adversary_cheat_attempts", kSum, true, &R::adversary_cheat_attempts);
  field("false_accusations", kSum, false, &R::false_accusations);
  field("final_correct_tasks", kSum, false, &R::final_correct_tasks);
  field("final_corrupt_tasks", kSum, false, &R::final_corrupt_tasks);
  field("outcome", kMax, true, &R::outcome);
  field("tasks_unfinished", kSum, false, &R::tasks_unfinished);
  field("fault_events", kSum, false, &R::fault_events);
  field("churn_leaves", kSum, false, &R::churn_leaves);
  field("churn_rejoins", kSum, false, &R::churn_rejoins);
  field("results_lost", kSum, false, &R::results_lost);
  field("results_corrupted", kSum, false, &R::results_corrupted);
  field("duplicate_results", kSum, false, &R::duplicate_results);
  // Per-shard low-water marks and progress rates add: the fleet is
  // partitioned.
  field("min_live_fleet", kSum, false, &R::min_live_fleet);
  field("progress_rate", kSum, false, &R::progress_rate);
  field("makespan", kMax, true, &R::makespan);
  field("end_time", kMax, false, &R::end_time);
  field("first_detection_time", kByHand, false, &R::first_detection_time);
  field("mean_detection_latency", kByHand, false, &R::mean_detection_latency);
  field("detections", kSum, false, &R::detections);
  field("events_processed", kSum, false, &R::events_processed);
}

/// The one list of RuntimeSample's counters, with their series_table
/// column names. Each counter is named like the report field it samples,
/// so a visitor may take samples and reports alike:
/// for_each_counter(f, sample, report) calls f(column, sample.x, report.x).
/// Every counter sums in the shard merge.
template <typename F, typename... Rows>
void for_each_counter(F&& f, Rows&... rows) {
  const auto counter = [&](const char* column, [[maybe_unused]] auto get) {
    f(column, get(rows)...);
  };
  counter("issued", [](auto& r) -> auto& { return r.units_issued; });
  counter("completed", [](auto& r) -> auto& { return r.units_completed; });
  counter("timed_out", [](auto& r) -> auto& { return r.units_timed_out; });
  counter("reissued", [](auto& r) -> auto& { return r.units_reissued; });
  counter("valid", [](auto& r) -> auto& { return r.tasks_valid; });
  counter("boosts", [](auto& r) -> auto& { return r.control_boosts; });
  counter("releases", [](auto& r) -> auto& { return r.control_releases; });
}

/// Two-column (metric, value) summary table.
[[nodiscard]] report::Table to_table(const RuntimeReport& report);

/// Time-series table (one row per sample); empty-bodied when disabled.
[[nodiscard]] report::Table series_table(const RuntimeReport& report);

/// Renders the full report with fixed formatting (byte-identical for
/// identical reports).
void print(std::ostream& out, const RuntimeReport& report);

}  // namespace redund::runtime
