// Chaos sweep: a scenario matrix over the timed fault kinds, checking
// determinism (byte-identical replay, queue-kind independence), counter
// conservation, graceful degradation (stall / abort outcomes in bounded
// simulated time), and sharded fault campaigns. Registered under the
// ctest label "chaos" so CI can run the sweep as its own stage.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/fault.hpp"
#include "runtime/sharded.hpp"
#include "runtime/supervisor.hpp"

namespace core = redund::core;
namespace parallel = redund::parallel;
namespace runtime = redund::runtime;
namespace sim = redund::sim;

using runtime::CampaignOutcome;
using runtime::FaultKind;

namespace {

core::RealizedPlan balanced_plan(std::int64_t n, double eps) {
  return core::realize(
      core::make_balanced(static_cast<double>(n), eps,
                          {.truncate_below = 1e-9}),
      n, eps);
}

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

runtime::RuntimeConfig base_config() {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(150, 0.5);
  config.honest_participants = 15;
  config.sybil_identities = 5;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.latency.dropout_probability = 0.05;
  config.seed = 0xC8A05ULL;
  return config;
}

struct Scenario {
  const char* name;
  runtime::FaultSchedule faults;
};

// The sweep matrix: every fault kind appears, alone and combined.
std::vector<Scenario> sweep_scenarios() {
  std::vector<Scenario> scenarios;
  {
    Scenario s{.name = "churn", .faults = {}};
    s.faults.events.push_back({.time = 3.0, .kind = FaultKind::kLeave,
                               .participant = 1});
    s.faults.events.push_back({.time = 4.0, .kind = FaultKind::kLeave,
                               .participant = 8});
    s.faults.events.push_back({.time = 15.0, .kind = FaultKind::kRejoin,
                               .participant = 1});
    s.faults.events.push_back({.time = 18.0, .kind = FaultKind::kRejoin,
                               .participant = 8});
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s{.name = "blackout", .faults = {}};
    s.faults.events.push_back({.time = 5.0, .kind = FaultKind::kBlackout,
                               .fraction = 0.5, .duration = 8.0});
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s{.name = "network", .faults = {}};
    s.faults.events.push_back(
        {.time = 2.0, .kind = FaultKind::kMessageLoss, .duration = 10.0,
         .probability = 0.3});
    s.faults.events.push_back(
        {.time = 3.0, .kind = FaultKind::kDuplication, .duration = 10.0,
         .probability = 0.4});
    s.faults.events.push_back(
        {.time = 4.0, .kind = FaultKind::kCorruption, .duration = 8.0,
         .probability = 0.25});
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s{.name = "burst", .faults = {}};
    s.faults.events.push_back(
        {.time = 1.0, .kind = FaultKind::kDropoutBurst, .duration = 10.0,
         .probability = 0.5});
    scenarios.push_back(std::move(s));
  }
  {
    Scenario s{.name = "combined", .faults = {}};
    s.faults.events.push_back({.time = 2.0, .kind = FaultKind::kLeave,
                               .participant = 3});
    s.faults.events.push_back({.time = 4.0, .kind = FaultKind::kBlackout,
                               .fraction = 0.3, .duration = 6.0});
    s.faults.events.push_back(
        {.time = 5.0, .kind = FaultKind::kDropoutBurst, .duration = 6.0,
         .probability = 0.4});
    s.faults.events.push_back(
        {.time = 6.0, .kind = FaultKind::kMessageLoss, .duration = 6.0,
         .probability = 0.2});
    s.faults.events.push_back(
        {.time = 7.0, .kind = FaultKind::kDuplication, .duration = 6.0,
         .probability = 0.2});
    s.faults.events.push_back(
        {.time = 8.0, .kind = FaultKind::kCorruption, .duration = 6.0,
         .probability = 0.2});
    s.faults.events.push_back({.time = 16.0, .kind = FaultKind::kRejoin,
                               .participant = 3});
    scenarios.push_back(std::move(s));
  }
  return scenarios;
}

// ------------------------------------------------------------------ sweep

TEST(ChaosSweep, EveryScenarioIsDeterministicAndConserving) {
  for (const Scenario& scenario : sweep_scenarios()) {
    auto config = base_config();
    config.faults = scenario.faults;

    const auto a = runtime::run_async_campaign(config);
    const auto b = runtime::run_async_campaign(config);
    EXPECT_EQ(rendered(a), rendered(b)) << scenario.name;

    // Task conservation: every task is either validated or reported
    // unfinished, and a completed campaign left nothing behind.
    EXPECT_EQ(a.tasks_valid + a.tasks_unfinished, a.tasks) << scenario.name;
    if (a.outcome == CampaignOutcome::kCompleted) {
      EXPECT_EQ(a.tasks_unfinished, 0) << scenario.name;
      EXPECT_EQ(a.tasks_valid, a.tasks) << scenario.name;
    }
    // Every scheduled fault fired (starts plus window ends).
    EXPECT_GE(a.fault_events,
              static_cast<std::int64_t>(scenario.faults.events.size()))
        << scenario.name;
    EXPECT_GE(a.min_live_fleet, 0) << scenario.name;
    EXPECT_LE(a.min_live_fleet, a.participants) << scenario.name;
    EXPECT_GE(a.end_time, a.makespan) << scenario.name;
  }
}

TEST(ChaosSweep, QueueKindCannotChangeAFaultedCampaign) {
  for (const Scenario& scenario : sweep_scenarios()) {
    auto config = base_config();
    config.faults = scenario.faults;
    config.queue = runtime::QueueKind::kBinaryHeap;
    const auto heap = runtime::run_async_campaign(config);
    config.queue = runtime::QueueKind::kCalendar;
    const auto calendar = runtime::run_async_campaign(config);
    EXPECT_EQ(rendered(heap), rendered(calendar)) << scenario.name;
  }
}

// ------------------------------------------------------------ fault effects

TEST(ChaosEffects, BlackoutChurnIsSymmetric) {
  auto config = base_config();
  config.faults.events.push_back({.time = 5.0, .kind = FaultKind::kBlackout,
                                  .fraction = 0.6, .duration = 8.0});
  const auto report = runtime::run_async_campaign(config);
  // Whoever the blackout took down came back when it ended.
  EXPECT_GT(report.churn_leaves, 0);
  EXPECT_EQ(report.churn_leaves, report.churn_rejoins);
  EXPECT_LT(report.min_live_fleet, report.participants);
  EXPECT_EQ(report.outcome, CampaignOutcome::kCompleted);
}

TEST(ChaosEffects, DuplicatesDrainAsLateResults) {
  auto config = base_config();
  config.sybil_identities = 0;
  config.faults.events.push_back(
      {.time = 0.0, .kind = FaultKind::kDuplication, .duration = 500.0,
       .probability = 1.0});
  const auto report = runtime::run_async_campaign(config);
  ASSERT_EQ(report.outcome, CampaignOutcome::kCompleted);
  EXPECT_GT(report.duplicate_results, 0);
  // Every duplicate delivery is ignored as a stale/late arrival; none may
  // double-count a unit.
  EXPECT_GE(report.late_results, report.duplicate_results);
  EXPECT_EQ(report.tasks_valid, report.tasks);
}

TEST(ChaosEffects, CorruptionTriggersDetectionsWithoutAnAdversary) {
  runtime::RuntimeConfig config;
  config.plan = flat_plan(80, 2);  // Quorum everywhere: no silent singleton.
  config.honest_participants = 10;
  config.seed = 0xC0441ULL;
  config.faults.events.push_back(
      {.time = 0.0, .kind = FaultKind::kCorruption, .duration = 200.0,
       .probability = 0.5});
  const auto report = runtime::run_async_campaign(config);
  EXPECT_GT(report.results_corrupted, 0);
  EXPECT_GT(report.detections, 0);  // The validator saw the bit-flips...
  EXPECT_EQ(report.adversary_cheat_attempts, 0);  // ...with no one cheating.
  EXPECT_EQ(report.outcome, CampaignOutcome::kCompleted);
  // Recompute resolution must still deliver every task correctly.
  EXPECT_EQ(report.final_correct_tasks, report.tasks);
  EXPECT_EQ(report.final_corrupt_tasks, 0);
}

TEST(ChaosEffects, MessageLossCostsResultsButNotCorrectness) {
  auto config = base_config();
  config.sybil_identities = 0;
  config.retry.max_retries = 8;
  config.faults.events.push_back(
      {.time = 0.0, .kind = FaultKind::kMessageLoss, .duration = 40.0,
       .probability = 0.5});
  const auto report = runtime::run_async_campaign(config);
  EXPECT_GT(report.results_lost, 0);
  EXPECT_GT(report.units_timed_out, 0);  // Lost reports look like timeouts.
  EXPECT_EQ(report.outcome, CampaignOutcome::kCompleted);
  EXPECT_EQ(report.final_correct_tasks, report.tasks);
}

// -------------------------------------------------------------- degradation

TEST(ChaosDegradation, FleetCollapseStallsInBoundedTime) {
  runtime::RuntimeConfig config;
  config.plan = flat_plan(40, 2);
  config.honest_participants = 6;
  config.latency.straggler_fraction = 1.0;  // Service times x5: little
  config.latency.straggler_slowdown = 5.0;  // completes before t=0.5.
  config.health.recompute_budget = 0;
  config.retry.max_retries = 1;
  config.seed = 0xDEADULL;
  for (std::int64_t p = 0; p < 6; ++p) {
    config.faults.events.push_back({.time = 0.5, .kind = FaultKind::kLeave,
                                    .participant = p});
  }
  const auto report = runtime::run_async_campaign(config);
  EXPECT_EQ(report.outcome, CampaignOutcome::kStalled);
  EXPECT_GT(report.tasks_unfinished, 0);
  EXPECT_EQ(report.tasks_valid + report.tasks_unfinished, report.tasks);
  EXPECT_EQ(report.min_live_fleet, 0);
  // Bounded simulated time: the health monitor ended the campaign instead
  // of spinning on an empty fleet.
  EXPECT_LT(report.end_time, 1e6);
  EXPECT_GT(report.events_processed, 0);
}

TEST(ChaosDegradation, MaxSimTimeAbortsWithAPartialReport) {
  runtime::RuntimeConfig config;
  config.plan = flat_plan(60, 2);
  config.honest_participants = 8;
  config.latency.straggler_fraction = 1.0;
  config.latency.straggler_slowdown = 50.0;  // Service times dwarf the cap.
  config.health.max_sim_time = 15.0;
  config.seed = 0xAB047ULL;
  const auto report = runtime::run_async_campaign(config);
  EXPECT_EQ(report.outcome, CampaignOutcome::kAborted);
  EXPECT_DOUBLE_EQ(report.end_time, 15.0);
  EXPECT_GT(report.tasks_unfinished, 0);
  EXPECT_EQ(report.tasks_valid + report.tasks_unfinished, report.tasks);
}

// ------------------------------------------------------------------ sharded

TEST(ChaosSharded, FaultedCampaignMergesIdenticallyAcrossPoolSizes) {
  auto base = base_config();
  base.plan = balanced_plan(400, 0.5);
  base.honest_participants = 30;
  base.sybil_identities = 6;
  base.faults.events.push_back({.time = 2.0, .kind = FaultKind::kLeave,
                                .participant = 4});
  base.faults.events.push_back({.time = 3.0, .kind = FaultKind::kBlackout,
                                .fraction = 0.3, .duration = 6.0});
  base.faults.events.push_back(
      {.time = 4.0, .kind = FaultKind::kDuplication, .duration = 8.0,
       .probability = 0.3});
  base.faults.events.push_back({.time = 14.0, .kind = FaultKind::kRejoin,
                                .participant = 4});

  std::string reference;
  for (const std::size_t pool_size : {1u, 4u}) {
    parallel::ThreadPool pool(pool_size);
    const auto merged = runtime::run_sharded_campaign(base, 3, pool);
    if (reference.empty()) {
      reference = rendered(merged);
      EXPECT_GT(merged.fault_events, 0);
      EXPECT_GT(merged.churn_leaves, 0);
      EXPECT_EQ(merged.churn_leaves, merged.churn_rejoins);
      EXPECT_EQ(merged.outcome, CampaignOutcome::kCompleted);
      EXPECT_EQ(merged.tasks_valid, merged.tasks);
    } else {
      EXPECT_EQ(rendered(merged), reference);
    }
  }
}

TEST(ChaosSharded, MergeTakesTheWorstOutcome) {
  runtime::RuntimeReport completed;
  completed.outcome = CampaignOutcome::kCompleted;
  runtime::RuntimeReport stalled;
  stalled.outcome = CampaignOutcome::kStalled;
  stalled.tasks_unfinished = 7;
  runtime::RuntimeReport aborted;
  aborted.outcome = CampaignOutcome::kAborted;
  aborted.tasks_unfinished = 2;

  const auto one = runtime::ShardedSupervisor::merge({completed, stalled});
  EXPECT_EQ(one.outcome, CampaignOutcome::kStalled);
  EXPECT_EQ(one.tasks_unfinished, 7);

  const auto two =
      runtime::ShardedSupervisor::merge({stalled, aborted, completed});
  EXPECT_EQ(two.outcome, CampaignOutcome::kAborted);
  EXPECT_EQ(two.tasks_unfinished, 9);
}

}  // namespace
