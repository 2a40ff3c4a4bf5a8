#include "runtime/supervisor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "platform/registry.hpp"
#include "platform/scheduler.hpp"
#include "rng/distributions.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/journal.hpp"
#include "runtime/task_state.hpp"

namespace redund::runtime {

namespace {

using platform::ParticipantId;
using platform::Principal;

constexpr std::uint64_t kDealSalt = 0xDEA1ULL;
constexpr std::uint64_t kDemandSalt = 0xDE34A4DULL;
constexpr std::uint64_t kBenignSalt = 0xE44EULL;
// Fault-injection streams: each fault event draws from its own family of
// streams keyed off (seed, salt, fault index), so adding or removing one
// fault never perturbs another's coins.
constexpr std::uint64_t kBlackoutSalt = 0xB1AC0117ULL;
constexpr std::uint64_t kBurstSalt = 0xB4457ULL;
constexpr std::uint64_t kLossSalt = 0x105505ULL;
constexpr std::uint64_t kDupSalt = 0xD0D0D0ULL;
constexpr std::uint64_t kCorruptSalt = 0xC0440417ULL;
// Per-task activation coin of the drifting colluding fraction (kPDrift).
constexpr std::uint64_t kPDriftSalt = 0x9D41F7ULL;

/// Ground-truth result of a task — the same keyed-hash construction as
/// platform/campaign.cpp, so honest computation is deterministic and the
/// supervisor can recompute it at will.
std::uint64_t truth_value(std::uint64_t seed, std::int64_t task) {
  rng::SplitMix64 mixer(seed ^ (0x9E3779B97F4A7C15ULL *
                                static_cast<std::uint64_t>(task + 1)));
  return mixer();
}

/// The automatic per-unit deadline at FCFS queue depth `queue_depth`: the
/// round trip plus four mean service times per queued unit.
double automatic_deadline(double queue_depth) {
  return LatencyModel::kNetworkDelay +
         4.0 * LatencyModel::kMeanService * queue_depth;
}

/// The colluders' agreed wrong value is truth ^ kCollusionMask: identical
/// across all their copies, derivable from the truth the supervisor
/// recomputes at will.
constexpr std::uint64_t kCollusionMask = 0xBAD0BEEFCAFEF00DULL;

void validate_config(const RuntimeConfig& config) {
  if (config.honest_participants < 1) {
    throw std::invalid_argument(
        "run_async_campaign: need at least one honest participant");
  }
  // Written so that NaN fails the range test.
  if (config.sybil_identities < 0 ||
      !(config.benign_error_rate >= 0.0 && config.benign_error_rate < 1.0)) {
    throw std::invalid_argument(
        "run_async_campaign: bad adversary/error settings");
  }
  if (config.retry.max_retries < 0) {
    throw std::invalid_argument("run_async_campaign: bad retry policy");
  }
  if (!std::isfinite(config.retry.deadline)) {
    throw std::invalid_argument(
        "run_async_campaign: retry.deadline must be finite");
  }
  if (!(config.sample_interval >= 0.0) ||
      !std::isfinite(config.sample_interval)) {
    throw std::invalid_argument(
        "run_async_campaign: sample_interval must be finite and >= 0");
  }
  if (!std::isfinite(config.health.max_sim_time)) {
    throw std::invalid_argument(
        "run_async_campaign: health.max_sim_time must be finite");
  }
  control::validate(config.control);
  config.faults.validate(config.honest_participants +
                         config.sybil_identities);
  if (!config.journal.path.empty() && config.journal.checkpoint_interval < 1) {
    throw std::invalid_argument(
        "run_async_campaign: journal checkpoint_interval must be >= 1");
  }
  // Event subjects are 32-bit (runtime::Event). Unit slots and tasks are
  // bounded where their lanes are sized, in the Scheduler's constructor.
  if (config.faults.events.size() >=
      static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max())) {
    throw std::invalid_argument(
        "run_async_campaign: faults must stay below 2^31 - 1 (32-bit event "
        "subjects)");
  }
}

/// The campaign's Scheduler, built once validate_config has passed (the
/// Runner's member-init list builds it first). Each task's run has room
/// for the adaptive/INCONCLUSIVE replicas plus, with the controller on,
/// its escalations.
platform::Scheduler validated_scheduler(const RuntimeConfig& config) {
  validate_config(config);
  return platform::Scheduler(
      config.plan,
      AdaptiveConfig::kMaxExtraReplicas +
          (config.control.enabled ? control::ControlConfig::kMaxBoost : 0));
}

/// Canonical fingerprint of everything that determines the event stream
/// (all of RuntimeConfig except the journal options, which only decide
/// *recording*, and the unread `queue`). A journal written under one
/// fingerprint refuses to resume under another.
std::uint64_t config_fingerprint(const RuntimeConfig& config) {
  StateWriter w;
  w.i64(static_cast<std::int64_t>(config.plan.counts.size()));
  for (const std::int64_t count : config.plan.counts) w.i64(count);
  w.i64(config.plan.ringer_count);
  w.i64(config.plan.ringer_multiplicity);
  w.i64(config.honest_participants);
  w.i64(config.sybil_identities);
  w.i64(static_cast<std::int64_t>(config.strategy));
  w.i64(config.tuple_size);
  w.f64(config.benign_error_rate);
  w.boolean(config.reactive);
  w.f64(config.latency.speed_sigma);
  w.f64(config.latency.straggler_fraction);
  w.f64(config.latency.straggler_slowdown);
  w.f64(config.latency.dropout_probability);
  w.f64(config.retry.deadline);
  w.i64(config.retry.max_retries);
  w.boolean(config.adaptive.enabled);
  w.boolean(config.control.enabled);
  w.f64(config.control.epsilon);
  w.i64(config.control.replan_interval);
  w.f64(config.control.check_interval);
  w.i64(config.control.min_observations);
  w.i64(static_cast<std::int64_t>(config.faults.events.size()));
  for (const FaultEvent& fault : config.faults.events) {
    w.f64(fault.time);
    w.i64(static_cast<std::int64_t>(fault.kind));
    w.i64(fault.participant);
    w.f64(fault.fraction);
    w.f64(fault.duration);
    w.f64(fault.probability);
  }
  w.i64(config.health.recompute_budget);
  w.f64(config.health.max_sim_time);
  w.f64(config.sample_interval);
  return fnv1a_hash(w.text());
}

/// The whole asynchronous campaign: owns the registry, scheduler, pool,
/// calendar event queue, and all per-task / per-unit runtime state.
///
/// The unit table — each unit's task and assignee, and each task's run of
/// units — is the Scheduler's; the Runner reads those lanes and runs and
/// keeps only runtime state beside them (UnitTable, TaskTable).
///
/// The steady-state loop is allocation-free: the event queues pre-size
/// their storage, the Scheduler sizes every task's run with its replica
/// budget built in, the controller's residual mix has a row per reachable
/// target from the start, and blacklist membership is a plain bitmap. Fault windows are a
/// plain bitmap over the (small) schedule and every fault coin is a keyed
/// stream draw, so the chaos layer adds no allocation per event. Only a
/// blackout start allocates, once, the scratch of its one-pass requeue,
/// sized by the units its leavers hold.
class Runner {
 public:
  explicit Runner(const RuntimeConfig& config)
      : config_(config),
        scheduler_(validated_scheduler(config)),
        deal_engine_(rng::make_stream(config.seed ^ kDealSalt, 0)),
        decision_{.proportion = 0.0,
                  .strategy = config.strategy,
                  .tuple_size = config.tuple_size} {
    config_hash_ = config_fingerprint(config);

    for (std::int64_t i = 0; i < config.honest_participants; ++i) {
      registry_.enroll(Principal::kHonest);
    }
    if (config.sybil_identities > 0) {
      registry_.enroll_sybils(config.sybil_identities);
    }
    pool_.emplace(config.latency, registry_.size(), config.seed);
    scheduler_.deal(registry_, deal_engine_);

    const auto task_count = static_cast<std::size_t>(scheduler_.task_count());
    const auto unit_count = static_cast<std::size_t>(scheduler_.unit_count());

    // Per-task service demands, shared by all copies of a task.
    demand_.resize(task_count);
    auto demand_engine = rng::make_stream(config.seed ^ kDemandSalt, 0);
    for (double& d : demand_) {
      d = rng::exponential(LatencyModel::kMeanService, demand_engine);
    }

    // Pre-size the event queue from the plan: every live unit carries at
    // most one completion and one deadline timer, each task one adaptive
    // check when adaptive replication is on, plus the fault schedule, the
    // health timer, and slack for replication units added mid-campaign.
    // The unit table is reserved up to the Scheduler's slot bound, so
    // replicas never regrow its lanes (capacity never touched is not
    // resident).
    queue_.reserve(2 * unit_count +
                   (config.adaptive.enabled ? task_count : 0) +
                   config.faults.events.size() + 32);
    units_.reserve(scheduler_.slot_count());
    units_.resize(unit_count);
    tasks_.resize(task_count);
    batch_.reserve(64);
    // Immutable per-participant principal bitmap: the hot result path only
    // needs "is this an adversary identity", not the whole registry row.
    is_adversary_.resize(static_cast<std::size_t>(registry_.size()));
    for (std::int64_t p = 0; p < registry_.size(); ++p) {
      is_adversary_[static_cast<std::size_t>(p)] =
          registry_.record(static_cast<ParticipantId>(p)).principal ==
                  Principal::kAdversary
              ? 1
              : 0;
    }

    // Assignment conservation: the initial deal must place exactly the
    // plan's Σ i·x_i work units (plus ringers).
    REDUND_INVARIANT(
        scheduler_.unit_count() == config.plan.total_assignments(),
        "initial deal conserves the plan's assignment total (sum i*x_i)");
    for (std::size_t t = 0; t < task_count; ++t) {
      tasks_.target_copies[t] =
          static_cast<std::int32_t>(scheduler_.multiplicity(t));
    }
    score_.assign(static_cast<std::size_t>(registry_.size()),
                  AdaptiveConfig::kScoreInit);
    flagged_.assign(static_cast<std::size_t>(registry_.size()), 0);
    offline_count_.assign(static_cast<std::size_t>(registry_.size()), 0);
    window_active_.assign(config.faults.events.size(), 0);
    min_live_ = registry_.size();

    // Effective deadline: explicit, or scaled to the expected FCFS queue
    // depth so back-of-queue units are not spuriously timed out.
    const double queue_depth =
        std::max(1.0, static_cast<double>(unit_count) /
                          static_cast<double>(registry_.size()));
    effective_deadline_ = config.retry.deadline > 0.0
                              ? config.retry.deadline
                              : automatic_deadline(queue_depth);
    // Review periods derive from the starting deadline: straggler reviews
    // twice per deadline, health checks every two deadlines.
    check_interval_ = 0.5 * effective_deadline_;
    health_interval_ = 2.0 * effective_deadline_;
    replan_period_ = config.control.check_interval > 0.0
                         ? config.control.check_interval
                         : 0.5 * effective_deadline_;
    if (config.control.enabled) {
      controller_ = control::CampaignController(config.control);
      moved_scratch_.assign(task_count, 0);
      // One row per reachable target: a task's target never exceeds its
      // multiplicity plus its replica and boost budgets. Every task starts
      // unsent at its multiplicity, neither promotable nor demotable.
      std::int64_t top = 0;
      for (std::size_t t = 0; t < task_count; ++t) {
        top = std::max(top, scheduler_.multiplicity(t));
      }
      top += AdaptiveConfig::kMaxExtraReplicas +
             control::ControlConfig::kMaxBoost;
      mix_.resize(static_cast<std::size_t>(top) + 1);
      for (std::size_t m = 0; m < mix_.size(); ++m) {
        mix_[m].multiplicity = static_cast<std::int64_t>(m);
      }
      for (std::size_t t = 0; t < task_count; ++t) count_task_(mix_, t, +1);
      residual_scratch_.reserve(mix_.size());
    }
    for (const FaultEvent& fault : config.faults.events) {
      if (fault.kind == FaultKind::kPDrift) has_drift_ = true;
    }
    judgments_moot_ = !config.adaptive.enabled && !config.control.enabled;
    next_checkpoint_ = config.journal.checkpoint_interval;

    report_.tasks = scheduler_.task_count();
    report_.units_planned = scheduler_.unit_count();
    report_.participants = registry_.size();
    report_.stragglers = pool_->straggler_count();
  }

  RuntimeReport run() {
    open_journal_();
    prologue_();
    (void)loop_(-1);
    return epilogue_();
  }

  std::optional<RuntimeReport> run_capped(std::int64_t max_events) {
    open_journal_();
    prologue_();
    if (loop_(max_events) == LoopExit::kKilled) {
      // A graceful shutdown: record the digest at the kill point, so
      // resume verifies the re-run through the last processed event.
      if (journal_ && last_digest_index_ != report_.events_processed) {
        write_digest_();
      }
      return std::nullopt;
    }
    return epilogue_();
  }

  /// Re-runs the campaign from its seed, rewriting the journal as it
  /// goes, and checks the re-run against the recorded digests and
  /// terminal record.
  RuntimeReport resume() {
    const JournalContents contents = read_journal(config_.journal.path);
    if (contents.config_hash != config_hash_ ||
        contents.seed != config_.seed) {
      throw std::runtime_error(
          "resume_async_campaign: journal belongs to a different "
          "config/seed");
    }
    recorded_ = &contents.tail;
    open_journal_();  // Truncates; the re-run writes it afresh.
    prologue_();
    verify_digests_();  // A kill before the first event records H 0.
    (void)loop_(-1);
    if (recorded_cursor_ < contents.tail.size()) {
      // Recorded past the last boundary the re-run reached.
      throw divergence_(contents.tail[recorded_cursor_].index);
    }
    recorded_ = nullptr;
    RuntimeReport report = epilogue_();
    if (contents.completed &&
        (contents.final_index !=
             static_cast<std::uint64_t>(report.events_processed) ||
         contents.outcome != static_cast<std::int64_t>(report.outcome))) {
      throw divergence_(contents.final_index);
    }
    return report;
  }

 private:
  enum class LoopExit { kDrained, kStopped, kKilled };

  // ----------------------------------------------------------- loop phases

  void open_journal_() {
    if (config_.journal.path.empty()) return;
    journal_.emplace(config_.journal.path, config_hash_, config_.seed);
  }

  /// t = 0: arm the fault schedule, issue every dealt unit, arm the
  /// per-task reliability reviews and the health monitor.
  void prologue_() {
    for (std::size_t i = 0; i < config_.faults.events.size(); ++i) {
      queue_.schedule(config_.faults.events[i].time, EventKind::kFault,
                      static_cast<std::int64_t>(i));
    }
    for (std::size_t u = 0; u < units_.size(); ++u) issue_unit(u, 0.0);
    if (config_.adaptive.enabled) {
      for (std::size_t t = 0; t < tasks_.size(); ++t) {
        queue_.schedule(check_interval_, EventKind::kAdaptiveCheck,
                        static_cast<std::int64_t>(t));
      }
    }
    queue_.schedule(health_interval_, EventKind::kHealthCheck, 0);
    if (config_.control.enabled) {
      queue_.schedule(replan_period_, EventKind::kReplan, 0);
    }
  }

  /// The event loop. Drains same-timestamp events in batches: all events
  /// already queued at the head timestamp are popped together (strictly
  /// ascending seq — identical order to one-at-a-time pops; events a
  /// handler schedules at the same timestamp carry later seqs and so form
  /// the next batch). Sampling, the journal digest, and the kill/abort
  /// checks run at batch boundaries.
  LoopExit loop_(std::int64_t max_events) {
#if REDUND_ENABLE_INVARIANTS
    // Pop-order contract: the queue must deliver events in strictly
    // ascending (time, seq) order — any regression here (an overflow
    // heap bug, a bucket mis-sort) silently breaks journal replay equality.
    contracts::ScopedCampaignContext context_guard(
        {config_.seed, 0.0, report_.events_processed});
    bool have_last_popped = false;
    Event last_popped{};
#endif
    while (!queue_.empty()) {
      if (max_events >= 0 && report_.events_processed >= max_events) {
        return LoopExit::kKilled;
      }
      const Event* head_peek = queue_.peek();
      if (config_.health.max_sim_time > 0.0 &&
          head_peek->time > config_.health.max_sim_time) {
        outcome_ = CampaignOutcome::kAborted;
        report_.end_time =
            std::max(report_.end_time, config_.health.max_sim_time);
        return LoopExit::kStopped;
      }
      const EventRun batch = queue_.pop_run(batch_);
      const double batch_time = batch.head.front().time;
      // The completion stream visits units in completion-time order —
      // random in unit space, so each handler opens with dependent misses
      // on the unit lanes. The next batch's head is already known here;
      // warming its lanes now overlaps those misses with this batch's
      // processing. (A subject that is not a unit index — fault or task
      // subjects — just warms harmless nearby lines.)
      if (const Event* next_head = queue_.peek()) {
        const auto nu = static_cast<std::size_t>(next_head->subject);
        if (nu < units_.size()) {
          __builtin_prefetch(units_.state.data() + nu);
          __builtin_prefetch(units_.epoch.data() + nu);
          __builtin_prefetch(units_.attempts.data() + nu);
          __builtin_prefetch(scheduler_.task_lane().data() + nu);
          __builtin_prefetch(units_.value.data() + nu);
        }
      }
      // Sample only until the campaign is fully valid: later events are
      // stale-timer drains, and the closing sample at the makespan in
      // epilogue_() must stay the last (and latest) row of the series.
      if (config_.sample_interval > 0.0 &&
          report_.tasks_valid < report_.tasks) {
        while (next_sample_ <= batch_time) {
          record_sample(next_sample_);
          next_sample_ += config_.sample_interval;
        }
      }
      report_.end_time = std::max(report_.end_time, batch_time);
      // The run's two parts in order; a stop_ skips the rest of both.
      for (const std::span<const Event> part : {batch.head, batch.tail}) {
        for (const Event& event : part) {
          if (stop_) break;
#if REDUND_ENABLE_INVARIANTS
          contracts::set_campaign_context(
              {config_.seed, event.time, report_.events_processed});
          REDUND_INVARIANT(
              !have_last_popped || fires_before(last_popped, event),
              "event queue pops in strictly ascending (time, seq) order");
          have_last_popped = true;
          last_popped = event;
#endif
          ++report_.events_processed;
          switch (event.kind) {
            case EventKind::kCompletion: on_completion(event); break;
            case EventKind::kDeadline: on_deadline(event); break;
            case EventKind::kReissue: on_reissue(event); break;
            case EventKind::kAdaptiveCheck: on_adaptive_check(event); break;
            case EventKind::kFault: on_fault(event); break;
            case EventKind::kFaultEnd: on_fault_end(event); break;
            case EventKind::kHealthCheck: on_health_check(event); break;
            case EventKind::kReplan: on_replan(event); break;
          }
        }
      }
      // A stop_ mid-batch ends the campaign before the digest could count
      // the unprocessed rest of the batch; past here all of it ran.
      if (stop_) return LoopExit::kStopped;
      if (journal_) {
        digest_ = fold_events(fold_events(digest_, batch.head), batch.tail);
        verify_digests_();
        if (report_.events_processed >= next_checkpoint_) {
          write_digest_();
          next_checkpoint_ =
              report_.events_processed + config_.journal.checkpoint_interval;
        }
      }
    }
    return LoopExit::kDrained;
  }

  RuntimeReport epilogue_() {
    // A drained queue with unfinished tasks is a stall the monitor did not
    // get to declare first (e.g. a parked unit whose health timer already
    // drained) — degrade to a partial report, never throw.
    if (outcome_ == CampaignOutcome::kCompleted) {
      for (const TaskState state : tasks_.state) {
        if (state != TaskState::kValid) {
          outcome_ = CampaignOutcome::kStalled;
          break;
        }
      }
    }
    report_.outcome = outcome_;
    report_.tasks_unfinished = static_cast<std::int64_t>(
        tasks_.size() - static_cast<std::size_t>(std::count(
                            tasks_.state.begin(), tasks_.state.end(),
                            TaskState::kValid)));
    report_.min_live_fleet = min_live_;
    report_.progress_rate = ewma_;
    report_.end_time = std::max(report_.end_time, report_.makespan);
    if (config_.sample_interval > 0.0 &&
        (report_.series.empty() ||
         report_.series.back().time < report_.makespan)) {
      record_sample(report_.makespan);
    }

    if (report_.detections > 0) {
      report_.mean_detection_latency =
          detection_time_total_ / static_cast<double>(report_.detections);
      report_.first_detection_time = first_detection_;
    }
    if (config_.control.enabled) {
      // Both are closed-form functions of the posterior counts, so a
      // resumed re-run reproduces them bit-for-bit.
      report_.p_hat_mean = controller_.p_mean();
      report_.p_hat_upper = controller_.p_upper();
    }
    if (journal_) {
      journal_->finish(static_cast<std::uint64_t>(report_.events_processed),
                       static_cast<std::int64_t>(outcome_));
    }
    return report_;
  }

  // ------------------------------------------------------------- journaling

  void write_digest_() {
    journal_->digest(static_cast<std::uint64_t>(report_.events_processed),
                     digest_);
    last_digest_index_ = report_.events_processed;
  }

  /// On resume, every recorded `H` at or before the current event index
  /// must sit exactly at this batch boundary and carry this digest.
  void verify_digests_() {
    if (recorded_ == nullptr) return;
    const auto index = static_cast<std::uint64_t>(report_.events_processed);
    while (recorded_cursor_ < recorded_->size() &&
           (*recorded_)[recorded_cursor_].index <= index) {
      const DigestRecord& want = (*recorded_)[recorded_cursor_];
      if (want.index != index || want.digest != digest_) {
        throw divergence_(want.index);
      }
      ++recorded_cursor_;
    }
  }

  [[nodiscard]] static std::runtime_error divergence_(std::uint64_t index) {
    return std::runtime_error(
        "resume_async_campaign: journal replay divergence at event " +
        std::to_string(index));
  }

  // --------------------------------------------------------- fault injection

  /// One deterministic coin of fault event `fault_index`: keyed off
  /// (seed, salt, fault index) and the caller's stream, never off
  /// processing order.
  [[nodiscard]] bool fault_coin_(std::uint64_t salt, std::size_t fault_index,
                                 std::uint64_t stream, double p) const {
    return fault_coin(config_.seed, salt, fault_index, stream, p);
  }

  /// Whether an open window of the single-coin fault `kind` (dropout
  /// burst, message loss, duplication) hits attempt `attempt` of unit
  /// `u`. Each open window of that kind draws its keyed coin in schedule
  /// order, and the first hit ends the scan.
  [[nodiscard]] bool window_hit_(FaultKind kind, std::uint64_t salt,
                                 std::size_t u, std::int64_t attempt) const {
    for (std::size_t i = 0; i < window_active_.size(); ++i) {
      if (window_active_[i] == 0) continue;
      const FaultEvent& fault = config_.faults.events[i];
      if (fault.kind == kind &&
          fault_coin_(salt, i, unit_attempt_stream(u, attempt),
                      fault.probability)) {
        return true;
      }
    }
    return false;
  }

  void on_fault(const Event& event) {
    ++report_.fault_events;
    const auto i = static_cast<std::size_t>(event.subject);
    const FaultEvent& fault = config_.faults.events[i];
    switch (fault.kind) {
      case FaultKind::kLeave: {
        const auto id = static_cast<ParticipantId>(fault.participant);
        if (set_offline_(id, +1)) {
          report_.results_lost += requeue_units_of_(id, event.time);
        }
        reestimate_deadline_();
        break;
      }
      case FaultKind::kRejoin:
        (void)set_offline_(static_cast<ParticipantId>(fault.participant), -1);
        reestimate_deadline_();
        break;
      case FaultKind::kBlackout: {
        // Take the whole blackout offline first, then requeue what the
        // leavers held in one pass over the unit table.
        std::vector<ParticipantId> leaving;
        for (std::int64_t p = 0; p < registry_.size(); ++p) {
          const auto id = static_cast<ParticipantId>(p);
          if (fault_coin_(kBlackoutSalt, i, static_cast<std::uint64_t>(p),
                          fault.fraction) &&
              set_offline_(id, +1)) {
            leaving.push_back(id);
          }
        }
        report_.results_lost += requeue_units_of_(leaving, event.time);
        reestimate_deadline_();
        queue_.schedule(event.time + fault.duration, EventKind::kFaultEnd,
                        event.subject);
        break;
      }
      case FaultKind::kDropoutBurst:
      case FaultKind::kMessageLoss:
      case FaultKind::kDuplication:
      case FaultKind::kCorruption:
        window_active_[i] = 1;
        queue_.schedule(event.time + fault.duration, EventKind::kFaultEnd,
                        event.subject);
        break;
      case FaultKind::kPDrift:
        // Re-anchor the drift from wherever the previous segment stands
        // now, so chained drift events compose (ramp into step into ramp).
        drift_from_ = active_cheat_fraction_(event.time);
        drift_target_ = fault.fraction;
        drift_start_ = event.time;
        drift_duration_ = fault.duration;
        break;
    }
  }

  void on_fault_end(const Event& event) {
    ++report_.fault_events;
    const auto i = static_cast<std::size_t>(event.subject);
    const FaultEvent& fault = config_.faults.events[i];
    if (fault.kind == FaultKind::kBlackout) {
      // Redraws the same per-participant coins as the start, so exactly
      // the affected participants rejoin.
      for (std::int64_t p = 0; p < registry_.size(); ++p) {
        if (fault_coin_(kBlackoutSalt, i, static_cast<std::uint64_t>(p),
                        fault.fraction)) {
          (void)set_offline_(static_cast<ParticipantId>(p), -1);
        }
      }
      reestimate_deadline_();
    } else {
      window_active_[i] = 0;
    }
  }

  /// Applies one leave (+1) or rejoin (-1) to a participant's nesting
  /// count; only the offline<->online *transitions* touch the registry.
  /// Returns true when the participant goes offline: every in-flight unit
  /// it held is then lost (the results never arrive), and the caller
  /// requeues them for immediate re-issue.
  [[nodiscard]] bool set_offline_(ParticipantId id, int delta) {
    auto& count = offline_count_[id];
    const bool was_offline = count > 0;
    count = std::max<std::int64_t>(0, count + delta);
    const bool is_offline = count > 0;
    if (!was_offline && is_offline) {
      ++report_.churn_leaves;
      registry_.set_blacklisted(id, true);
    } else if (was_offline && !is_offline) {
      ++report_.churn_rejoins;
      // A rejoin clears the availability hold, never a validator verdict.
      if (flagged_[id] == 0) registry_.set_blacklisted(id, false);
    }
    update_min_live_();
    return !was_offline && is_offline;
  }

  /// Re-derives the automatic deadline from the surviving fleet: the same
  /// queue-depth scaling as at campaign start, but with the *live* fleet
  /// and the in-flight load. An explicit RetryPolicy::deadline is a
  /// contract and is never re-estimated. Applies to future issues only;
  /// armed deadline timers keep their original expiry.
  void reestimate_deadline_() {
    if (config_.retry.deadline > 0.0) return;
    const std::int64_t live = std::max<std::int64_t>(
        1, registry_.active_count());
    const auto inflight = static_cast<std::int64_t>(
        std::count(units_.state.begin(), units_.state.end(),
                   UnitState::kInProgress));
    const double depth = std::max(1.0, static_cast<double>(inflight) /
                                           static_cast<double>(live));
    effective_deadline_ = automatic_deadline(depth);
  }

  void update_min_live_() {
    min_live_ = std::min(min_live_, registry_.active_count());
  }

  /// The colluding fraction the adversary currently plays, following the
  /// most recent kPDrift segment (1.0 before any drift event: the
  /// paper's baseline adversary plays every playable tuple).
  [[nodiscard]] double active_cheat_fraction_(double now) const noexcept {
    if (now >= drift_start_ + drift_duration_ || drift_duration_ <= 0.0) {
      return drift_target_;
    }
    if (now <= drift_start_) return drift_from_;
    return drift_from_ + (drift_target_ - drift_from_) *
                             (now - drift_start_) / drift_duration_;
  }

  // --------------------------------------------------------- health monitor

  void on_health_check(const Event& event) {
    // Campaign finished: the timer drains without re-arming, so the queue
    // can empty.
    if (report_.tasks_valid >= report_.tasks) return;
    const std::int64_t progress = report_.units_completed +
                                  report_.supervisor_recomputes +
                                  report_.tasks_valid;
    const double rate =
        static_cast<double>(progress - last_progress_) / health_interval_;
    if (!ewma_init_) {
      ewma_ = rate;
      ewma_init_ = true;
    } else {
      ewma_ = HealthConfig::kEwmaAlpha * rate +
              (1.0 - HealthConfig::kEwmaAlpha) * ewma_;
    }
    if (progress == last_progress_) {
      ++stall_streak_;
      // Soft stall: nothing is even in flight that could produce progress.
      // Hard backstop: pending completions kept appearing but no progress
      // ever landed (e.g. deadline < service time with infinite retries —
      // every result arrives late, forever).
      const bool soft = stall_streak_ >= HealthConfig::kStallChecks &&
                        completions_pending_ == 0;
      const bool hard = stall_streak_ >= 10 * HealthConfig::kStallChecks;
      if (soft || hard) {
        outcome_ = CampaignOutcome::kStalled;
        stop_ = true;
        return;  // No re-arm.
      }
    } else {
      stall_streak_ = 0;
    }
    last_progress_ = progress;
    queue_.schedule(event.time + health_interval_, EventKind::kHealthCheck, 0);
  }

  // ------------------------------------------------------------- issue loop

  void issue_unit(std::size_t u, double now) {
    const std::size_t t = scheduler_.task_of(u);
    units_.state[u] = UnitState::kInProgress;
    const std::int64_t attempt = units_.attempts[u] += 1;
    units_.epoch[u] += 1;
    ++report_.units_issued;

    const auto outcome = pool_->issue(
        scheduler_.assignee_of(u), now, demand_[t],
        static_cast<std::uint64_t>(u), attempt);
    // Active dropout-burst windows stack their coins on the static model's:
    // any hit drops the issue.
    if (outcome.replies &&
        !window_hit_(FaultKind::kDropoutBurst, kBurstSalt, u, attempt)) {
      queue_.schedule(outcome.completion_time, EventKind::kCompletion,
                      static_cast<std::int64_t>(u), units_.epoch[u]);
      ++completions_pending_;
    } else {
      ++report_.units_dropped;
    }
    queue_.schedule(now + effective_deadline_, EventKind::kDeadline,
                    static_cast<std::int64_t>(u), units_.epoch[u]);

    if (tasks_.state[t] == TaskState::kUnsent ||
        tasks_.state[t] == TaskState::kInconclusive) {
      update_task_(t, [&] { tasks_.state[t] = TaskState::kInProgress; });
    }
  }

  void on_completion(const Event& event) {
    --completions_pending_;  // Every scheduled delivery drains exactly once.
    const auto u = static_cast<std::size_t>(event.subject);
    if (units_.state[u] != UnitState::kInProgress ||
        units_.epoch[u] != event.epoch) {
      ++report_.late_results;  // Timed out (or requeued) before arriving.
      return;
    }
    const std::int64_t attempt = units_.attempts[u];
    // Message-loss window: the work was done but the report vanishes in
    // transit; the unit stays in progress and its deadline will fire.
    if (window_hit_(FaultKind::kMessageLoss, kLossSalt, u, attempt)) {
      ++report_.results_lost;
      return;
    }
    units_.state[u] = UnitState::kCompleted;
    ++report_.units_completed;
    if (config_.control.enabled) controller_.observe_issue(false);
    compute_value(u, event.time);
    // Corruption window: flip the delivered value in transit. Ground truth
    // (ParticipantRecord::wrong_results) is untouched — the submitter
    // computed correctly; the validator will still see a mismatch and may
    // blacklist an honest identity, which is exactly the cost such spikes
    // impose on a real platform.
    for (std::size_t i = 0; i < window_active_.size(); ++i) {
      if (window_active_[i] == 0) continue;
      const FaultEvent& fault = config_.faults.events[i];
      if (fault.kind != FaultKind::kCorruption) continue;
      // Two draws (gate + flip), so this rare window keeps the full
      // engine rather than the single-draw closed form.
      auto engine = rng::make_stream(
          config_.seed ^ kCorruptSalt ^
              (0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(i) + 1)),
          unit_attempt_stream(u, attempt));
      if (rng::bernoulli(fault.probability, engine)) {
        units_.value[u] ^= (engine() | 1ULL);  // Guaranteed non-zero flip.
        ++report_.results_corrupted;
        break;
      }
    }
    on_result(u, event.time);
    // Duplication window: the network re-delivers the same report after
    // another network delay; the copy drains as a late result.
    if (window_hit_(FaultKind::kDuplication, kDupSalt, u, attempt)) {
      queue_.schedule(event.time + LatencyModel::kNetworkDelay,
                      EventKind::kCompletion, static_cast<std::int64_t>(u),
                      event.epoch);
      ++completions_pending_;
      ++report_.duplicate_results;
    }
  }

  void on_deadline(const Event& event) {
    const auto u = static_cast<std::size_t>(event.subject);
    if (units_.state[u] != UnitState::kInProgress ||
        units_.epoch[u] != event.epoch) {
      return;
    }
    units_.state[u] = UnitState::kTimedOut;
    units_.epoch[u] += 1;  // A straggling completion now lands late.
    ++report_.units_timed_out;
    score_down(scheduler_.assignee_of(u));
    if (config_.control.enabled) controller_.observe_issue(true);

    const std::int64_t retries_used = units_.attempts[u] - 1;
    if (retries_used < config_.retry.max_retries) {
      const double backoff =
          RetryPolicy::kBackoffBase *
          std::pow(RetryPolicy::kBackoffFactor,
                   static_cast<double>(retries_used));
      queue_.schedule(event.time + backoff, EventKind::kReissue,
                      static_cast<std::int64_t>(u), units_.epoch[u]);
    } else {
      recompute_unit(u, event.time);
    }
  }

  void on_reissue(const Event& event) {
    const auto u = static_cast<std::size_t>(event.subject);
    if (units_.state[u] != UnitState::kTimedOut ||
        units_.epoch[u] != event.epoch) {
      return;
    }
    if (!scheduler_.try_reassign_unit(u, registry_, deal_engine_)) {
      // Nobody eligible is left; the supervisor does the work itself.
      recompute_unit(u, event.time);
      return;
    }
    ++report_.units_reissued;
    issue_unit(u, event.time);
  }

  /// Supervisor computes the unit itself (trusted, costly). With the
  /// default unlimited HealthConfig::recompute_budget this is the terminal
  /// fallback that guarantees every task reaches VALID; with a finite
  /// budget an over-budget unit *parks* (timed out, no event scheduled)
  /// and the health monitor ends the campaign as stalled.
  void recompute_unit(std::size_t u, double now) {
    if (config_.health.recompute_budget >= 0 &&
        recompute_used_ >= config_.health.recompute_budget) {
      units_.state[u] = UnitState::kTimedOut;
      units_.epoch[u] += 1;
      return;
    }
    ++recompute_used_;
    units_.state[u] = UnitState::kRecomputed;
    units_.epoch[u] += 1;
    units_.value[u] = truth_(scheduler_.task_of(u));
    ++report_.supervisor_recomputes;
    on_result(u, now);
  }

  // ------------------------------------------------------------ result path

  void compute_value(std::size_t u, double now) {
    const std::size_t t = scheduler_.task_of(u);
    const ParticipantId assignee = scheduler_.assignee_of(u);
    const std::uint64_t truth = truth_(t);
    std::uint64_t value = truth;
    if (is_adversary_[assignee] != 0) {
      // The principal commits to a per-task plan the first time any of her
      // identities reports a copy, based on how many copies she holds then.
      if (!tasks_.test(t, TaskTable::kAdversaryCommitted)) {
        tasks_.set(t, TaskTable::kAdversaryCommitted);
        std::int64_t held = 0;
        for (const std::uint32_t v : scheduler_.run(t)) {
          held += is_adversary_[scheduler_.assignee_of(v)];
        }
        bool cheats = decision_.should_cheat(held);
        // Under a kPDrift schedule the principal only plays a fraction of
        // her playable tuples; the coin is keyed per task, so commit
        // *order* never changes the draw, only the active fraction at
        // commit time does.
        if (cheats && has_drift_) {
          cheats = rng::first_bernoulli(active_cheat_fraction_(now),
                                        config_.seed ^ kPDriftSalt,
                                        static_cast<std::uint64_t>(t));
        }
        tasks_.assign(t, TaskTable::kAdversaryCheats, cheats);
        if (cheats) ++report_.adversary_cheat_attempts;
      }
      if (tasks_.test(t, TaskTable::kAdversaryCheats)) {
        value = truth ^ kCollusionMask;
      }
    } else if (config_.benign_error_rate > 0.0) {
      // Per-(unit, attempt) stream so replay stays deterministic. The
      // Bernoulli gate takes the single-draw closed form; only a hit —
      // rare by construction — pays for the full engine, whose second
      // draw scrambles the value.
      const std::uint64_t stream = unit_attempt_stream(u, units_.attempts[u]);
      if (rng::first_bernoulli(config_.benign_error_rate,
                               config_.seed ^ kBenignSalt, stream)) {
        auto unit_engine =
            rng::make_stream(config_.seed ^ kBenignSalt, stream);
        (void)unit_engine();
        value = truth ^ (0x1ULL + (unit_engine() | 0x2ULL));
      }
    }
    if (value != truth) {
      ++registry_.record(assignee).wrong_results;
    }
    units_.value[u] = value;
  }

  void on_result(std::size_t u, double now) {
    const std::size_t t = scheduler_.task_of(u);
    // A task can be VALID with copies still in flight only after the
    // controller released its target below the issued count; a straggler
    // arriving then is informational, never a re-validation.
    if (tasks_.state[t] == TaskState::kValid) {
      ++report_.late_results;
      return;
    }
    update_task_(t, [&] { ++tasks_.arrived[t]; });
    // Every value-bearing unit passes through here exactly once with its
    // final value (completions are epoch-guarded, corruption happens
    // upstream, and flag() never touches value-bearing states), so the
    // running fold sees exactly the values a run gather would.
    tasks_.fold_vote(t, units_.value[u]);

    // Ringer copies are checked the moment they arrive: the supervisor
    // knows the answer outright, so a wrong value is an immediate catch.
    if (scheduler_.is_ringer(t) &&
        units_.state[u] == UnitState::kCompleted &&
        units_.value[u] != truth_(t)) {
      if (!tasks_.test(t, TaskTable::kRingerCounted)) {
        tasks_.set(t, TaskTable::kRingerCounted);
        ++report_.ringer_catches;
      }
      record_detection(t, now);
      flag(scheduler_.assignee_of(u), now);
    }

    if (tasks_.arrived[t] >= tasks_.target_copies[t]) validate(t, now);
  }

  // ---------------------------------------------------------- transitioner

  void validate(std::size_t t, double now) {
    update_task_(t,
                 [&] { tasks_.state[t] = TaskState::kPendingValidation; });
    const std::uint64_t truth = truth_(t);

    if (scheduler_.is_ringer(t)) {
      accept(t, truth, now);
      return;
    }

    // Unanimity fast path: on_result folded every arriving value into the
    // per-task vote aggregate as it landed, so the all-agree case answers
    // from two task lanes. kVoteSeen clear means zero value-bearing copies,
    // which accepts 0.
    if (!tasks_.test(t, TaskTable::kVoteMismatch)) {
      accept(t,
             tasks_.test(t, TaskTable::kVoteSeen) ? tasks_.vote_value[t] : 0,
             now);
      return;
    }

    // Copies disagree: the alarm condition of the paper's model.
    record_detection(t, now);
    if (!tasks_.test(t, TaskTable::kMismatchCounted)) {
      tasks_.set(t, TaskTable::kMismatchCounted);
      ++report_.mismatches_detected;
    }
    if (!tasks_.test(t, TaskTable::kInconclusiveCounted)) {
      tasks_.set(t, TaskTable::kInconclusiveCounted);
      ++report_.tasks_inconclusive;
    }

    // BOINC-style INCONCLUSIVE: one more copy before the trusted
    // recompute. The mismatch latch is sticky, so this copy never changes
    // the accepted value.
    if (extra_replicas_(t) < AdaptiveConfig::kMaxExtraReplicas) {
      if (const auto nu =
              scheduler_.try_add_replica(static_cast<std::int64_t>(t),
                                         registry_, deal_engine_)) {
        update_task_(t, [&] {
          tasks_.state[t] = TaskState::kInconclusive;
          ++tasks_.target_copies[t];
        });
        ++report_.quorum_replicas;
        units_.append();
        issue_unit(*nu, now);
        return;
      }
    }

    // Replicas exhausted: the supervisor does the work itself (the
    // paper's reactive measure) and accepts the truth.
    ++report_.supervisor_recomputes;
    accept(t, truth, now);
  }

  /// Marks task `t` VALID with `value` and audits that value against the
  /// ground truth. VALID is terminal, so each task passes here once.
  void accept(std::size_t t, std::uint64_t value, double now) {
    update_task_(t, [&] { tasks_.state[t] = TaskState::kValid; });
    ++report_.tasks_valid;
    const std::uint64_t truth = truth_(t);
    if (value == truth) {
      ++report_.final_correct_tasks;
    } else {
      ++report_.final_corrupt_tasks;
    }
    report_.makespan = std::max(report_.makespan, now);

    // Per-copy judgments feed exactly three consumers: the adaptive
    // reliability scores, the controller's posterior, and the reactive
    // flag/false-accusation path for copies that disagree with the
    // accepted value. With the first two disabled by config and every
    // folded value equal to the accepted one (unanimity latch clear and
    // the aggregate matches), the sweep below is dead work — skip it.
    // The guard is config-keyed plus latch state, never a fresh draw, so
    // replay and resume take the same branch.
    if (judgments_moot_ && !tasks_.test(t, TaskTable::kVoteMismatch) &&
        (!tasks_.test(t, TaskTable::kVoteSeen) ||
         tasks_.vote_value[t] == value)) {
      return;
    }

    for (const std::uint32_t u : scheduler_.run(t)) {
      if (units_.state[u] != UnitState::kCompleted) continue;  // No report.
      const auto submitter = scheduler_.assignee_of(u);
      // Every judged copy is one Bernoulli observation for the
      // controller's adversary-fraction posterior.
      if (config_.control.enabled) {
        controller_.observe_outcome(units_.value[u] != value);
        ++report_.control_observations;
      }
      if (units_.value[u] == value) {
        score_up(submitter);
      } else {
        score_down(submitter);
        if (units_.value[u] == truth) ++report_.false_accusations;
        flag(submitter, now);
      }
    }
  }

  // -------------------------------------------------- reaction & adaptivity

  /// Blacklists a caught identity and requeues its outstanding units.
  void flag(ParticipantId id, double now) {
    if (!config_.reactive) return;
    if (flagged_[id] != 0) return;
    flagged_[id] = 1;
    registry_.blacklist(id);
    ++report_.blacklisted_identities;
    requeue_units_of_(id, now);
    update_min_live_();
  }

  /// Times out every in-progress unit `id` holds and schedules its
  /// reissue at `now`; returns how many. Ascending unit order, so the
  /// reissues queue in unit order. A sybil sweep runs this once per
  /// caught identity over every unit, so it scans the assignee lane alone
  /// (std::find is unrolled) and reads a unit's state only on a hit.
  std::int64_t requeue_units_of_(ParticipantId id, double now) {
    std::int64_t requeued = 0;
    const std::span<const ParticipantId> assignees =
        scheduler_.assignee_lane();
    const auto first = assignees.begin();
    const auto last = assignees.end();
    for (auto it = std::find(first, last, id); it != last;
         it = std::find(it + 1, last, id)) {
      const auto u = static_cast<std::size_t>(it - first);
      if (units_.state[u] != UnitState::kInProgress) continue;
      requeue_unit_(u, now);
      ++requeued;
    }
    return requeued;
  }

  /// Requeues the in-progress units of every identity in `ids` (distinct)
  /// with one pass over the assignee lane; returns how many. The reissues
  /// queue exactly as one requeue_units_of_(id) per identity in `ids`
  /// order would queue them: identity by identity, each one's units
  /// ascending. The pass ranks each hit by its identity's place in `ids`,
  /// and a counting sort on that rank restores the order.
  std::int64_t requeue_units_of_(std::span<const ParticipantId> ids,
                                 double now) {
    if (ids.empty()) return 0;
    constexpr std::uint32_t kNotLeaving =
        std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> rank(offline_count_.size(), kNotLeaving);
    for (std::size_t r = 0; r < ids.size(); ++r) {
      rank[ids[r]] = static_cast<std::uint32_t>(r);
    }
    // Hits in ascending unit order, and each rank's bucket start.
    std::vector<std::uint32_t> hits;
    std::vector<std::size_t> start(ids.size() + 1, 0);
    const std::span<const ParticipantId> assignees =
        scheduler_.assignee_lane();
    for (std::size_t u = 0; u < assignees.size(); ++u) {
      const std::uint32_t r = rank[assignees[u]];
      if (r == kNotLeaving || units_.state[u] != UnitState::kInProgress) {
        continue;
      }
      hits.push_back(static_cast<std::uint32_t>(u));
      ++start[r + 1];
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::vector<std::uint32_t> order(hits.size());
    for (const std::uint32_t u : hits) {
      order[start[rank[assignees[u]]]++] = u;
    }
    for (const std::uint32_t u : order) requeue_unit_(u, now);
    return static_cast<std::int64_t>(order.size());
  }

  /// Times out in-progress unit `u` and schedules its reissue at `now`.
  void requeue_unit_(std::size_t u, double now) {
    units_.state[u] = UnitState::kTimedOut;
    units_.epoch[u] += 1;  // Its completion/deadline timers drain stale.
    queue_.schedule(now, EventKind::kReissue, static_cast<std::int64_t>(u),
                    units_.epoch[u]);
  }

  void on_adaptive_check(const Event& event) {
    const auto t = static_cast<std::size_t>(event.subject);
    if (tasks_.state[t] == TaskState::kValid) return;  // Drain, no re-arm.

    // Straggling by construction (still unfinished after a full review
    // period); replicate when the holders look unreliable too.
    double score_total = 0.0;
    std::int64_t outstanding = 0;
    for (const std::uint32_t u : scheduler_.run(t)) {
      const UnitState state = units_.state[u];
      if (state != UnitState::kInProgress && state != UnitState::kTimedOut) {
        continue;
      }
      score_total += score_[scheduler_.assignee_of(u)];
      ++outstanding;
    }
    if (outstanding > 0 &&
        score_total / static_cast<double>(outstanding) <
            AdaptiveConfig::kReliabilityFloor &&
        extra_replicas_(t) < AdaptiveConfig::kMaxExtraReplicas) {
      if (const auto nu =
              scheduler_.try_add_replica(static_cast<std::int64_t>(t),
                                         registry_, deal_engine_)) {
        update_task_(t, [&] { ++tasks_.target_copies[t]; });
        ++report_.adaptive_replicas;
        units_.append();
        issue_unit(*nu, event.time);
      }
    }
    queue_.schedule(event.time + check_interval_, EventKind::kAdaptiveCheck,
                    event.subject);
  }

  // ------------------------------------------------------ adaptive control

  void on_replan(const Event& event) {
    if (report_.tasks_valid >= report_.tasks) return;  // Drain, no re-arm.
    if (controller_.due(report_.units_completed)) {
      do_replan_(event.time);
    }
    queue_.schedule(event.time + replan_period_, EventKind::kReplan, 0);
  }

  /// Eligibility for one more controller copy this round. Ringers are
  /// planner-verified and INCONCLUSIVE tasks are mid-quorum-resolution;
  /// both stay out of the controller's hands.
  [[nodiscard]] bool promotable_(std::size_t t) const {
    return tasks_.state[t] == TaskState::kInProgress &&
           !scheduler_.is_ringer(t) &&
           tasks_.control_boosts[t] < control::ControlConfig::kMaxBoost;
  }

  /// Eligibility to give one previously escalated copy back: there must
  /// be a live boost to return and an outstanding copy to cancel without
  /// dropping the target below the already-arrived count.
  [[nodiscard]] bool demotable_(std::size_t t) const {
    return tasks_.state[t] == TaskState::kInProgress &&
           !scheduler_.is_ringer(t) &&
           tasks_.control_boosts[t] > tasks_.control_released[t] &&
           tasks_.target_copies[t] - 1 >= tasks_.arrived[t];
  }

  /// Applies `change` to task `t`'s lanes and keeps the residual mix
  /// current: the task's share of its row comes out before the change and
  /// goes back in after it. Every write to a task's state, target_copies,
  /// arrived, control_boosts or control_released goes through here.
  template <typename Change>
  void update_task_(std::size_t t, Change&& change) {
    if (mix_.empty()) {  // Controller off: nobody reads the mix.
      change();
      return;
    }
    count_task_(mix_, t, -1);
    change();
    count_task_(mix_, t, +1);
  }

  /// Adds (`sign` = +1) or removes (-1) task `t`'s share of a residual
  /// mix: one task in the row of its target, and one promotable and one
  /// demotable copy where it is eligible. A valid task has no share.
  void count_task_(std::vector<control::ResidualClass>& rows, std::size_t t,
                   std::int64_t sign) const {
    if (tasks_.state[t] == TaskState::kValid) return;
    const auto m = static_cast<std::size_t>(tasks_.target_copies[t]);
    REDUND_INVARIANT(m < rows.size(),
                     "a task's target stays within its replica budgets");
    control::ResidualClass& row = rows[m];
    row.tasks += sign;
    if (promotable_(t)) row.promotable += sign;
    if (demotable_(t)) row.demotable += sign;
  }

#if REDUND_ENABLE_INVARIANTS
  /// Recounts the residual mix by a walk over every task and checks each
  /// kept row against it: a task write that bypassed update_task_ shows
  /// up here.
  void check_mix_() const {
    std::vector<control::ResidualClass> walked(mix_.size());
    for (std::size_t t = 0; t < tasks_.size(); ++t) {
      count_task_(walked, t, +1);
    }
    for (std::size_t m = 0; m < mix_.size(); ++m) {
      REDUND_INVARIANT(mix_[m].tasks == walked[m].tasks &&
                           mix_[m].promotable == walked[m].promotable &&
                           mix_[m].demotable == walked[m].demotable,
                       "the kept residual mix matches a recount of the "
                       "unfinished tasks");
    }
  }
#endif

  /// One re-plan round: read the residual multiplicity mix of the
  /// unfinished tasks, evaluate the Section 5 bound at the posterior's
  /// upper credible limit, and apply the planner's promotion/release
  /// deltas in ascending task order (deterministic by construction).
  void do_replan_(double now) {
    controller_.mark_replanned(report_.units_completed);
    ++report_.replan_rounds;

    REDUND_INVARIANT(
        controller_.estimator().observations() ==
                controller_.observations() &&
            controller_.observations() == report_.control_observations,
        "controller posterior counts conserve the observed validator "
        "outcomes");
#if REDUND_ENABLE_INVARIANTS
    check_mix_();
#endif

    // The mix is kept current as tasks change, so a round only reads its
    // occupied rows. They come in ascending multiplicity, not in the
    // order a task walk would first meet them; plan_remaining folds its
    // classes by multiplicity, so the order cannot change the decision.
    residual_scratch_.clear();
    std::int64_t unfinished = 0;
    for (const control::ResidualClass& row : mix_) {
      if (row.tasks == 0) continue;
      residual_scratch_.push_back(row);
      unfinished += row.tasks;
    }
    REDUND_INVARIANT(unfinished == report_.tasks - report_.tasks_valid,
                     "residual re-plan mix sums to the outstanding task "
                     "count");
    if (unfinished == 0) return;

    const bool top_verified = config_.plan.ringer_count > 0;
    const control::ReplanDecision decision = control::plan_remaining(
        residual_scratch_, controller_.p_upper(),
        controller_.budgets(top_verified));

    // Only a round that moves copies walks the tasks, in ascending order.
    // A valid task is neither promotable nor demotable, so it is skipped.
    if (decision.empty()) return;
    std::fill(moved_scratch_.begin(), moved_scratch_.end(), 0);
    for (const control::ClassDelta& delta : decision.promotions) {
      std::int64_t remaining = delta.count;
      for (std::size_t t = 0; t < tasks_.size() && remaining > 0; ++t) {
        if (moved_scratch_[t] != 0 ||
            tasks_.target_copies[t] != delta.multiplicity ||
            !promotable_(t)) {
          continue;
        }
        const auto nu = scheduler_.try_add_replica(
            static_cast<std::int64_t>(t), registry_, deal_engine_);
        if (!nu) continue;  // No eligible identity for this task.
        moved_scratch_[t] = 1;
        update_task_(t, [&] {
          ++tasks_.control_boosts[t];
          ++tasks_.target_copies[t];
        });
        ++report_.control_boosts;
        units_.append();
        issue_unit(*nu, now);
        --remaining;
      }
    }
    for (const control::ClassDelta& delta : decision.demotions) {
      std::int64_t remaining = delta.count;
      for (std::size_t t = 0; t < tasks_.size() && remaining > 0; ++t) {
        if (moved_scratch_[t] != 0 ||
            tasks_.target_copies[t] != delta.multiplicity ||
            !demotable_(t)) {
          continue;
        }
        if (!cancel_one_unit_(t)) continue;
        moved_scratch_[t] = 1;
        update_task_(t, [&] {
          ++tasks_.control_released[t];
          --tasks_.target_copies[t];
        });
        ++report_.control_releases;
        --remaining;
        if (tasks_.arrived[t] >= tasks_.target_copies[t]) validate(t, now);
      }
    }
  }

  /// Cancels one outstanding copy of task `t`: a timed-out unit if one
  /// exists (its pending re-issue becomes stale — pure savings), else
  /// the latest in-flight unit (its completion drains as a late result).
  bool cancel_one_unit_(std::size_t t) {
    std::size_t victim = units_.size();
    for (const std::uint32_t u : scheduler_.run(t)) {
      const UnitState state = units_.state[u];
      if (state == UnitState::kTimedOut) {
        victim = u;
        break;
      }
      if (state == UnitState::kInProgress) victim = u;
    }
    if (victim >= units_.size()) return false;
    units_.state[victim] = UnitState::kTimedOut;
    units_.epoch[victim] += 1;  // Stale-out its pending timers.
    return true;
  }

  // -------------------------------------------------------------- plumbing

  /// Ground truth of task `t`: the keyed hash of the seed, recomputed on
  /// every read rather than stored.
  [[nodiscard]] std::uint64_t truth_(std::size_t t) const {
    return truth_value(config_.seed, static_cast<std::int64_t>(t));
  }

  /// INCONCLUSIVE and adaptive replicas task `t` has gained. Every unit
  /// its run holds beyond the dealt copies is one of those or a
  /// controller boost, and a release cancels a unit but never shrinks
  /// the run.
  [[nodiscard]] std::int64_t extra_replicas_(std::size_t t) const {
    return static_cast<std::int64_t>(scheduler_.run(t).size()) -
           scheduler_.multiplicity(t) - tasks_.control_boosts[t];
  }

  void record_detection(std::size_t t, double now) {
    if (tasks_.test(t, TaskTable::kDetected)) return;
    tasks_.set(t, TaskTable::kDetected);
    ++report_.detections;
    detection_time_total_ += now;
    first_detection_ = report_.detections == 1
                           ? now
                           : std::min(first_detection_, now);
  }

  void score_up(ParticipantId id) {
    score_[id] += AdaptiveConfig::kScoreGain * (1.0 - score_[id]);
  }
  void score_down(ParticipantId id) {
    score_[id] *= 1.0 - AdaptiveConfig::kScoreLoss;
  }

  void record_sample(double time) {
    RuntimeSample& sample = report_.series.emplace_back();
    sample.time = time;
    for_each_counter([](const char*, std::int64_t& into,
                        std::int64_t from) { into = from; },
                     sample, report_);
  }

  const RuntimeConfig& config_;
  platform::Registry registry_;
  platform::Scheduler scheduler_;
  rng::Xoshiro256StarStar deal_engine_;
  sim::AdversaryConfig decision_;
  std::optional<ParticipantPool> pool_;
  CalendarQueue queue_;
  RuntimeReport report_;
  std::optional<JournalWriter> journal_;

  std::vector<double> demand_;              ///< Per task.
  UnitTable units_;                         ///< SoA per-unit runtime state.
  TaskTable tasks_;                         ///< SoA per-task runtime state.
  std::vector<char> is_adversary_;          ///< Immutable, per identity.
  std::vector<double> score_;               ///< Per identity.
  std::vector<char> flagged_;               ///< Blacklist bitmap per identity.
  std::vector<std::int64_t> offline_count_; ///< Churn nesting per identity.
  std::vector<char> window_active_;         ///< Open windows per fault event.
  std::vector<Event> batch_;                ///< Same-timestamp drain scratch.
  /// The residual mix, kept current while the controller is on (empty
  /// when it is off): row m counts the unfinished tasks whose target is m
  /// copies, and how many of them are promotable and demotable.
  std::vector<control::ResidualClass> mix_;
  std::vector<control::ResidualClass> residual_scratch_;  ///< Occupied rows.
  std::vector<char> moved_scratch_;         ///< Per-task moved-this-round.

  control::CampaignController controller_;
  double replan_period_ = 0.0;
  bool has_drift_ = false;
  /// No consumer of per-copy judgments is active (see accept()).
  bool judgments_moot_ = false;
  // Current kPDrift segment (identity before any drift event fires).
  double drift_from_ = 1.0;
  double drift_target_ = 1.0;
  double drift_start_ = 0.0;
  double drift_duration_ = 0.0;

  double effective_deadline_ = 0.0;
  double check_interval_ = 0.0;
  double health_interval_ = 0.0;
  double next_sample_ = 0.0;
  double detection_time_total_ = 0.0;
  double first_detection_ = 0.0;
  std::int64_t completions_pending_ = 0;   ///< Scheduled, undrained deliveries.
  std::int64_t recompute_used_ = 0;
  std::int64_t stall_streak_ = 0;
  std::int64_t last_progress_ = 0;
  double ewma_ = 0.0;
  bool ewma_init_ = false;
  std::int64_t min_live_ = 0;
  bool stop_ = false;
  CampaignOutcome outcome_ = CampaignOutcome::kCompleted;

  std::uint64_t config_hash_ = 0;
  std::int64_t next_checkpoint_ = 0;
  std::uint64_t digest_ = kEmptyDigest;  ///< Fold of the processed events.
  std::int64_t last_digest_index_ = -1;  ///< Index of the last `H` written.
  const std::vector<DigestRecord>* recorded_ = nullptr;  ///< Resume only.
  std::size_t recorded_cursor_ = 0;
};

}  // namespace

RuntimeReport run_async_campaign(const RuntimeConfig& config) {
  Runner runner(config);
  return runner.run();
}

std::optional<RuntimeReport> run_async_campaign_capped(
    const RuntimeConfig& config, std::int64_t max_events) {
  if (max_events < 0) {
    throw std::invalid_argument(
        "run_async_campaign_capped: max_events must be >= 0");
  }
  Runner runner(config);
  return runner.run_capped(max_events);
}

RuntimeReport resume_async_campaign(const RuntimeConfig& config) {
  if (config.journal.path.empty()) {
    throw std::invalid_argument(
        "resume_async_campaign: config.journal.path must name the journal "
        "to resume from");
  }
  Runner runner(config);
  return runner.resume();
}

}  // namespace redund::runtime
