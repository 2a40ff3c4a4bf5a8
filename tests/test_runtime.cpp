// Tests for the asynchronous supervisor runtime: deterministic replay,
// the timeout -> backoff -> re-issue -> success path, quorum validation
// with INCONCLUSIVE extra replicas, adaptive replication, the supervisor
// recompute fallback, and config validation.
#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>

#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/fault.hpp"
#include "runtime/supervisor.hpp"
#include "runtime/task_state.hpp"

namespace core = redund::core;
namespace runtime = redund::runtime;
namespace sim = redund::sim;

namespace {

core::RealizedPlan balanced_plan(std::int64_t n, double eps) {
  return core::realize(
      core::make_balanced(static_cast<double>(n), eps,
                          {.truncate_below = 1e-9}),
      n, eps);
}

// A plan with every task at the given multiplicity and no ringers, for
// tests that want full control over quorum sizes.
core::RealizedPlan flat_plan(std::int64_t tasks, std::int64_t multiplicity) {
  core::RealizedPlan plan;
  plan.counts.assign(static_cast<std::size_t>(multiplicity), 0);
  plan.counts.back() = tasks;
  plan.task_count = tasks;
  plan.work_assignments = tasks * multiplicity;
  return plan;
}

std::string rendered(const runtime::RuntimeReport& report) {
  std::ostringstream out;
  runtime::print(out, report);
  return out.str();
}

// ------------------------------------------------------------- event queue

TEST(EventQueue, OrdersByTimeThenScheduleOrder) {
  runtime::EventQueue queue;
  queue.schedule(2.0, runtime::EventKind::kDeadline, 7);
  queue.schedule(1.0, runtime::EventKind::kCompletion, 1);
  queue.schedule(1.0, runtime::EventKind::kCompletion, 2);  // Same time.
  ASSERT_FALSE(queue.empty());

  const auto first = queue.pop();
  const auto second = queue.pop();
  const auto third = queue.pop();
  EXPECT_EQ(first.subject, 1);
  EXPECT_EQ(second.subject, 2);  // FIFO within a timestamp.
  EXPECT_EQ(third.subject, 7);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueue, ReservePreventsReallocationAndPreservesOrder) {
  runtime::EventQueue queue;
  queue.reserve(64);
  const std::size_t reserved = queue.capacity();
  EXPECT_GE(reserved, 64u);

  // Fill below the reservation in scrambled time order; capacity must not
  // move and events must still drain in (time, seq) order.
  for (int i = 0; i < 60; ++i) {
    queue.schedule(static_cast<double>((i * 37) % 50),
                   runtime::EventKind::kCompletion, i);
  }
  EXPECT_EQ(queue.capacity(), reserved);
  EXPECT_EQ(queue.size(), 60u);

  double last_time = -1.0;
  std::uint64_t last_seq = 0;
  bool first = true;
  while (!queue.empty()) {
    const auto event = queue.pop();
    if (!first && event.time == last_time) {
      EXPECT_GT(event.seq, last_seq);  // FIFO within a timestamp.
    } else if (!first) {
      EXPECT_GT(event.time, last_time);
    }
    last_time = event.time;
    last_seq = event.seq;
    first = false;
  }
}

TEST(TaskStateNames, RoundTrip) {
  EXPECT_STREQ(runtime::to_string(runtime::UnitState::kTimedOut),
               "TIMED_OUT");
}

// ------------------------------------------------------------- determinism

TEST(AsyncRuntime, DeterministicReplayIsByteIdentical) {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(400, 0.5);
  config.honest_participants = 40;
  config.sybil_identities = 10;
  config.latency.straggler_fraction = 0.2;
  config.latency.dropout_probability = 0.05;
  config.sample_interval = 5.0;
  config.seed = 1234;

  const auto a = runtime::run_async_campaign(config);
  const auto b = runtime::run_async_campaign(config);
  EXPECT_EQ(rendered(a), rendered(b));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.events_processed, b.events_processed);

  config.seed = 1235;
  const auto c = runtime::run_async_campaign(config);
  EXPECT_NE(rendered(a), rendered(c));
}

// ---------------------------------------------- timeout -> retry -> success

TEST(AsyncRuntime, TimeoutsAreRetriedAndEveryTaskValidates) {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(300, 0.5);
  config.honest_participants = 30;
  config.latency.dropout_probability = 0.3;  // Plenty of no-reply faults.
  config.retry.max_retries = 5;
  config.seed = 99;

  const auto report = runtime::run_async_campaign(config);
  EXPECT_GT(report.units_dropped, 0);
  EXPECT_GT(report.units_timed_out, 0);
  EXPECT_GT(report.units_reissued, 0);
  // Re-issues are retries of timed-out units, never more than one per
  // timeout.
  EXPECT_LE(report.units_reissued, report.units_timed_out);
  // All-honest fleet: every task must end VALID and correct, no alarms.
  EXPECT_EQ(report.tasks_valid, report.tasks);
  EXPECT_EQ(report.final_correct_tasks, report.tasks);
  EXPECT_EQ(report.final_corrupt_tasks, 0);
  EXPECT_EQ(report.detections, 0);
  EXPECT_EQ(report.blacklisted_identities, 0);
  EXPECT_GT(report.makespan, 0.0);
}

TEST(AsyncRuntime, ExhaustedRetriesFallBackToSupervisorRecompute) {
  runtime::RuntimeConfig config;
  config.plan = flat_plan(40, 2);
  config.honest_participants = 6;
  config.latency.dropout_probability = 0.4;
  config.retry.max_retries = 0;  // Any timeout goes straight to recompute.
  config.adaptive.enabled = false;
  config.seed = 17;

  const auto report = runtime::run_async_campaign(config);
  EXPECT_GT(report.units_timed_out, 0);
  EXPECT_EQ(report.units_reissued, 0);
  EXPECT_GT(report.supervisor_recomputes, 0);
  EXPECT_EQ(report.tasks_valid, report.tasks);
  EXPECT_EQ(report.final_corrupt_tasks, 0);
}

// ----------------------------------------------------- quorum + replication

TEST(AsyncRuntime, QuorumDisagreementSpawnsExtraReplicas) {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(600, 0.5);
  config.honest_participants = 60;
  config.sybil_identities = 40;  // Heavy collusion pressure.
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.reactive = false;  // Keep cheaters enrolled: more mismatches.
  config.seed = 7;

  const auto report = runtime::run_async_campaign(config);
  EXPECT_GT(report.adversary_cheat_attempts, 0);
  EXPECT_GT(report.mismatches_detected, 0);
  EXPECT_GT(report.tasks_inconclusive, 0);
  EXPECT_GT(report.quorum_replicas, 0);
  EXPECT_TRUE(report.alarm_fired());
  EXPECT_GT(report.first_detection_time, 0.0);
  EXPECT_GE(report.mean_detection_latency, report.first_detection_time);
  // The state machine must still drive everything to VALID, and ground
  // truth must account for every task.
  EXPECT_EQ(report.tasks_valid, report.tasks);
  EXPECT_EQ(report.final_correct_tasks + report.final_corrupt_tasks,
            report.tasks);
}

TEST(AsyncRuntime, DisagreeingCopiesResolveByRecompute) {
  // Honest copies only, so every mismatch is a benign error. With no
  // timeouts, each recompute is the resolution of a task whose copies
  // still disagreed once its replicas ran out, and it accepts the truth.
  runtime::RuntimeConfig config;
  config.plan = flat_plan(2000, 2);
  config.honest_participants = 100;
  config.benign_error_rate = 0.05;
  config.reactive = false;
  config.adaptive.enabled = false;
  config.retry.deadline = 1e6;
  config.seed = 11;

  const auto report = runtime::run_async_campaign(config);
  EXPECT_EQ(report.units_timed_out, 0);
  EXPECT_GT(report.tasks_inconclusive, 0);
  EXPECT_EQ(report.supervisor_recomputes, report.tasks_inconclusive);
  EXPECT_EQ(report.final_corrupt_tasks, 0);
  EXPECT_EQ(report.tasks_valid, report.tasks);
}

TEST(AsyncRuntime, ReactiveSupervisionBlacklistsCaughtIdentities) {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(600, 0.5);
  config.honest_participants = 60;
  config.sybil_identities = 40;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.reactive = true;
  config.seed = 7;

  const auto report = runtime::run_async_campaign(config);
  EXPECT_GT(report.blacklisted_identities, 0);
  EXPECT_LE(report.blacklisted_identities, 40);
  EXPECT_EQ(report.false_accusations, 0);  // No benign errors configured.
  EXPECT_EQ(report.tasks_valid, report.tasks);
}

TEST(AsyncRuntime, AdaptiveReplicationTriggersOnUnreliableHolders) {
  runtime::RuntimeConfig config;
  config.plan = flat_plan(60, 2);
  config.honest_participants = 10;
  config.latency.straggler_fraction = 0.5;
  config.latency.straggler_slowdown = 30.0;  // Deep straggler tail.
  config.adaptive.enabled = true;
  config.seed = 3;

  const auto with_adaptive = runtime::run_async_campaign(config);
  EXPECT_GT(with_adaptive.adaptive_replicas, 0);
  // The per-task cap bounds the extra copies.
  EXPECT_LE(with_adaptive.adaptive_replicas + with_adaptive.quorum_replicas,
            runtime::AdaptiveConfig::kMaxExtraReplicas * with_adaptive.tasks);
  EXPECT_EQ(with_adaptive.tasks_valid, with_adaptive.tasks);

  config.adaptive.enabled = false;
  const auto without = runtime::run_async_campaign(config);
  EXPECT_EQ(without.adaptive_replicas, 0);
}

// ----------------------------------------------------------------- sampling

TEST(AsyncRuntime, SeriesSamplesAreCumulativeAndOrdered) {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(300, 0.5);
  config.honest_participants = 30;
  config.latency.dropout_probability = 0.1;
  config.sample_interval = 2.0;
  config.seed = 11;

  const auto report = runtime::run_async_campaign(config);
  ASSERT_GE(report.series.size(), 2u);
  for (std::size_t i = 1; i < report.series.size(); ++i) {
    const auto& prev = report.series[i - 1];
    const auto& cur = report.series[i];
    EXPECT_GT(cur.time, prev.time);
    EXPECT_GE(cur.units_issued, prev.units_issued);
    EXPECT_GE(cur.units_completed, prev.units_completed);
    EXPECT_GE(cur.tasks_valid, prev.tasks_valid);
  }
  // The final sample sits at the makespan with the campaign fully valid.
  EXPECT_DOUBLE_EQ(report.series.back().time, report.makespan);
  EXPECT_EQ(report.series.back().tasks_valid, report.tasks);

  config.sample_interval = 0.0;
  EXPECT_TRUE(runtime::run_async_campaign(config).series.empty());
}

// ----------------------------------------------------- graceful degradation

TEST(AsyncRuntime, TotalDropoutStallsInsteadOfLivelocking) {
  // Regression: with every issue dropping and the recompute fallback
  // budgeted away, the old loop had no terminal state — retries exhausted,
  // units parked, and the queue kept draining re-issue timers forever.
  // The health monitor must end this as kStalled in bounded simulated
  // time with a partial report.
  runtime::RuntimeConfig config;
  config.plan = flat_plan(30, 2);
  config.honest_participants = 5;
  config.latency.dropout_probability = 1.0;  // Nothing ever reports.
  config.retry.max_retries = 3;
  config.health.recompute_budget = 0;
  config.seed = 41;

  const auto report = runtime::run_async_campaign(config);
  EXPECT_EQ(report.outcome, runtime::CampaignOutcome::kStalled);
  EXPECT_EQ(report.tasks_valid, 0);
  EXPECT_EQ(report.tasks_unfinished, report.tasks);
  EXPECT_LT(report.end_time, 1e6);  // Bounded, not livelocked.

  // With the recompute fallback unbudgeted the same fleet still finishes:
  // every unit falls through retry exhaustion to a supervisor recompute.
  config.health.recompute_budget = -1;
  const auto recovered = runtime::run_async_campaign(config);
  EXPECT_EQ(recovered.outcome, runtime::CampaignOutcome::kCompleted);
  EXPECT_GT(recovered.supervisor_recomputes, 0);
  EXPECT_EQ(recovered.tasks_valid, recovered.tasks);
}

TEST(AsyncRuntime, RecomputeBudgetCapsSupervisorRecomputes) {
  runtime::RuntimeConfig config;
  config.plan = flat_plan(40, 2);
  config.honest_participants = 6;
  config.latency.dropout_probability = 0.4;
  config.retry.max_retries = 0;  // Every timeout asks for a recompute.
  config.adaptive.enabled = false;
  config.health.recompute_budget = 5;
  config.seed = 17;

  const auto report = runtime::run_async_campaign(config);
  EXPECT_LE(report.supervisor_recomputes, 5);
  EXPECT_EQ(report.tasks_valid + report.tasks_unfinished, report.tasks);
  if (report.outcome == runtime::CampaignOutcome::kCompleted) {
    EXPECT_EQ(report.tasks_unfinished, 0);
  } else {
    EXPECT_GT(report.tasks_unfinished, 0);
  }
}

TEST(AsyncRuntime, ReliabilityScoresDecayUnderHeavyDropout) {
  // No stragglers: the only way a holder's score can fall below the floor
  // is the multiplicative decay on timeouts, so adaptive replicas firing
  // proves the decay path.
  runtime::RuntimeConfig config;
  config.plan = flat_plan(60, 2);
  config.honest_participants = 10;
  config.latency.dropout_probability = 0.5;
  config.retry.max_retries = 6;
  config.adaptive.enabled = true;
  config.seed = 29;

  const auto report = runtime::run_async_campaign(config);
  EXPECT_GT(report.units_timed_out, 0);
  EXPECT_GT(report.adaptive_replicas, 0);
  EXPECT_EQ(report.blacklisted_identities, 0);  // Honest-only fleet.
  EXPECT_EQ(report.tasks_valid, report.tasks);
}

// --------------------------------------------------------------- validation

TEST(AsyncRuntime, RejectsBadConfig) {
  runtime::RuntimeConfig good;
  good.plan = flat_plan(10, 2);
  good.honest_participants = 5;

  auto bad = good;
  bad.honest_participants = 0;
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);

  bad = good;
  bad.benign_error_rate = 1.0;
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);

  bad = good;
  bad.retry.max_retries = -1;
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);

  bad = good;
  bad.sample_interval = -1.0;
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);

  bad = good;
  bad.latency.dropout_probability = 1.5;
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);

  // Non-finite settings: NaN passes no range test, and an infinite one
  // would hang the loop or end it at t = inf.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto expect_rejected = [&](auto mutate) {
    runtime::RuntimeConfig config = good;
    mutate(config);
    EXPECT_THROW((void)runtime::run_async_campaign(config),
                 std::invalid_argument);
  };
  expect_rejected([&](auto& c) { c.latency.speed_sigma = kInf; });
  expect_rejected([&](auto& c) { c.latency.speed_sigma = 1e10; });
  expect_rejected([&](auto& c) { c.latency.speed_sigma = kNaN; });
  expect_rejected([&](auto& c) { c.latency.speed_sigma = -0.5; });
  expect_rejected([&](auto& c) { c.latency.straggler_fraction = kNaN; });
  expect_rejected([&](auto& c) { c.latency.dropout_probability = kNaN; });
  expect_rejected([&](auto& c) { c.latency.straggler_slowdown = kInf; });
  expect_rejected([&](auto& c) { c.retry.deadline = kInf; });
  expect_rejected([&](auto& c) { c.retry.deadline = kNaN; });
  expect_rejected([&](auto& c) { c.sample_interval = kInf; });
  expect_rejected([&](auto& c) { c.health.max_sim_time = kInf; });
  expect_rejected([&](auto& c) { c.benign_error_rate = kNaN; });
}

TEST(AsyncRuntime, RejectsBadHealthJournalAndFaultConfig) {
  runtime::RuntimeConfig good;
  good.plan = flat_plan(10, 2);
  good.honest_participants = 5;

  auto bad = good;  // A journal needs a sane checkpoint cadence.
  bad.journal.path = testing::TempDir() + "redund_badcfg.wal";
  bad.journal.checkpoint_interval = 0;
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);

  bad = good;  // Fault targets are validated against the enrolled fleet.
  bad.faults.events.push_back({.time = 1.0,
                               .kind = runtime::FaultKind::kLeave,
                               .participant = 5});
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);
}

TEST(AsyncRuntime, RejectsPlansBeyond32BitEventSubjects) {
  // Event subjects are 32-bit. Each plan below would need gigabytes of
  // task and unit tables, so a pass also shows the check runs before the
  // scheduler sizes anything from the plan.
  runtime::RuntimeConfig bad;
  bad.honest_participants = 5;
  bad.plan = flat_plan(std::int64_t{1} << 30, 2);  // 2^31 units.
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);
  EXPECT_THROW((void)runtime::run_async_campaign_capped(bad, 0),
               std::invalid_argument);

  // 1.5 * 2^30 units fit, but the per-task replica budget takes the slots
  // to 3 * 2^30.
  bad.plan = flat_plan(std::int64_t{3} << 28, 2);
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);

  // Counts far past 2^63 / multiplicity saturate instead of overflowing.
  bad.plan = core::RealizedPlan{};
  bad.plan.counts = {0, 0, std::numeric_limits<std::int64_t>::max()};
  EXPECT_THROW((void)runtime::run_async_campaign(bad), std::invalid_argument);
}

}  // namespace
