// Tests for the platform layer: registry/Sybil enrollment, the
// one-copy-per-identity scheduling rule (and how Sybils defeat it),
// verification, resolution policies, and the reactive supervisor loop.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "core/schemes/min_multiplicity.hpp"
#include "platform/campaign.hpp"
#include "platform/registry.hpp"
#include "platform/scheduler.hpp"

namespace core = redund::core;
namespace plat = redund::platform;
namespace sim = redund::sim;

namespace {

core::RealizedPlan small_balanced_plan(std::int64_t n, double eps) {
  return core::realize(
      core::make_balanced(static_cast<double>(n), eps,
                          {.truncate_below = 1e-9}),
      n, eps);
}

// ----------------------------------------------------------------- registry

TEST(Registry, EnrollAssignsSequentialIdsAndNames) {
  plat::Registry registry;
  const auto a = registry.enroll(plat::Principal::kHonest);
  const auto b = registry.enroll(plat::Principal::kHonest, "alice");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(registry.record(a).name, "user0");
  EXPECT_EQ(registry.record(b).name, "alice");
  EXPECT_EQ(registry.size(), 2);
}

TEST(Registry, SybilEnrollmentIsBulkAndContiguous) {
  plat::Registry registry;
  registry.enroll(plat::Principal::kHonest);
  const auto first = registry.enroll_sybils(50);
  EXPECT_EQ(first, 1u);
  EXPECT_EQ(registry.size(), 51);
  EXPECT_EQ(registry.adversary_count(), 50);
  EXPECT_THROW(registry.enroll_sybils(0), std::invalid_argument);
}

TEST(Registry, BlacklistAffectsActiveCount) {
  plat::Registry registry;
  registry.enroll(plat::Principal::kHonest);
  registry.enroll(plat::Principal::kHonest);
  registry.blacklist(0);
  EXPECT_EQ(registry.active_count(), 1);
  EXPECT_EQ(registry.blacklisted_count(), 1);
  EXPECT_TRUE(registry.record(0).blacklisted);
  EXPECT_THROW((void)registry.record(99), std::out_of_range);
}

// ---------------------------------------------------------------- scheduler

/// One unit of the scheduler's table: its task and current assignee.
struct Unit {
  std::int64_t task = 0;
  plat::ParticipantId assignee = 0;
};

/// The scheduler's unit table read through its lanes, in unit order.
std::vector<Unit> units(const plat::Scheduler& scheduler) {
  std::vector<Unit> table;
  for (std::size_t u = 0; u < static_cast<std::size_t>(scheduler.unit_count());
       ++u) {
    table.push_back({scheduler.task_of(u), scheduler.assignee_of(u)});
  }
  return table;
}

TEST(Scheduler, MaterializesPlanExactly) {
  const auto plan = small_balanced_plan(500, 0.5);
  plat::Scheduler scheduler(plan);
  EXPECT_EQ(scheduler.task_count(), 500 + plan.ringer_count);
  EXPECT_EQ(scheduler.unit_count(), plan.total_assignments());
  std::int64_t ringers = 0;
  for (std::size_t t = 0; t < static_cast<std::size_t>(scheduler.task_count());
       ++t) {
    ringers += scheduler.is_ringer(t) ? 1 : 0;
  }
  EXPECT_EQ(ringers, plan.ringer_count);
}

TEST(Scheduler, DealHonoursOneCopyPerIdentity) {
  const auto plan = small_balanced_plan(500, 0.5);
  plat::Scheduler scheduler(plan);
  plat::Registry registry;
  for (int i = 0; i < 40; ++i) registry.enroll(plat::Principal::kHonest);
  auto engine = redund::rng::make_stream(5, 0);
  scheduler.deal(registry, engine);

  std::set<std::pair<std::int64_t, plat::ParticipantId>> seen;
  for (const auto& unit : units(scheduler)) {
    const bool inserted = seen.insert({unit.task, unit.assignee}).second;
    EXPECT_TRUE(inserted) << "identity " << unit.assignee
                          << " holds two copies of task " << unit.task;
  }
}

TEST(Scheduler, DealRequiresEnoughIdentities) {
  const auto plan = small_balanced_plan(200, 0.5);
  plat::Scheduler scheduler(plan);
  plat::Registry registry;
  registry.enroll(plat::Principal::kHonest);  // One identity: too few.
  auto engine = redund::rng::make_stream(6, 0);
  EXPECT_THROW(scheduler.deal(registry, engine), std::invalid_argument);
}

TEST(Scheduler, SybilsDefeatTheOneCopyRule) {
  // With enough Sybil identities, one principal ends up holding multiple
  // copies of some task even though no single *identity* does — the paper's
  // core threat.
  const auto plan = small_balanced_plan(300, 0.5);
  plat::Scheduler scheduler(plan);
  plat::Registry registry;
  for (int i = 0; i < 20; ++i) registry.enroll(plat::Principal::kHonest);
  registry.enroll_sybils(20);  // Principal controls half the identities.
  auto engine = redund::rng::make_stream(7, 0);
  scheduler.deal(registry, engine);

  std::vector<int> adversary_copies(
      static_cast<std::size_t>(scheduler.task_count()), 0);
  for (const auto& unit : units(scheduler)) {
    if (registry.record(unit.assignee).principal ==
        plat::Principal::kAdversary) {
      ++adversary_copies[static_cast<std::size_t>(unit.task)];
    }
  }
  int fully_held_multicopy = 0;
  for (std::size_t t = 0; t < adversary_copies.size(); ++t) {
    if (adversary_copies[t] >= 2 &&
        adversary_copies[t] == scheduler.multiplicity(t)) {
      ++fully_held_multicopy;
    }
  }
  EXPECT_GT(fully_held_multicopy, 0);
}

TEST(Scheduler, ReassignMovesEveryUnitOffTheIdentity) {
  const auto plan = small_balanced_plan(300, 0.5);
  plat::Scheduler scheduler(plan);
  plat::Registry registry;
  for (int i = 0; i < 30; ++i) registry.enroll(plat::Principal::kHonest);
  auto engine = redund::rng::make_stream(8, 0);
  scheduler.deal(registry, engine);

  std::int64_t held_before = 0;
  for (const auto& unit : units(scheduler)) held_before += unit.assignee == 3;
  ASSERT_GT(held_before, 0);

  registry.blacklist(3);
  const auto moved = scheduler.reassign_from(3, registry, engine);
  EXPECT_EQ(static_cast<std::int64_t>(moved.size()), held_before);
  for (const auto& unit : units(scheduler)) {
    EXPECT_NE(unit.assignee, 3u);
  }
  // One-copy rule still intact after the reshuffle.
  std::set<std::pair<std::int64_t, plat::ParticipantId>> seen;
  for (const auto& unit : units(scheduler)) {
    EXPECT_TRUE(seen.insert({unit.task, unit.assignee}).second);
  }
}

// A saturated fixture for the reassignment edge cases: with exactly as many
// identities as the multiplicity, deal() gives every identity one copy of
// every task, so there is never an eligible non-holder to move a unit to.
core::RealizedPlan saturated_plan(std::int64_t tasks,
                                  std::int64_t multiplicity) {
  core::RealizedPlan plan;
  plan.counts.assign(static_cast<std::size_t>(multiplicity), 0);
  plan.counts.back() = tasks;
  plan.task_count = tasks;
  plan.work_assignments = tasks * multiplicity;
  return plan;
}

TEST(Scheduler, ReassignThrowsWhenRemainingIdentitiesHoldEverything) {
  // Two identities, multiplicity-2 tasks: each identity holds every task.
  // Blacklisting one leaves a survivor who already holds a copy of each
  // task the dead identity held, so reassign_from cannot place anything.
  const auto plan = saturated_plan(5, 2);
  plat::Scheduler scheduler(plan);
  plat::Registry registry;
  registry.enroll(plat::Principal::kHonest);
  registry.enroll(plat::Principal::kHonest);
  auto engine = redund::rng::make_stream(41, 0);
  scheduler.deal(registry, engine);

  registry.blacklist(1);
  EXPECT_THROW(scheduler.reassign_from(1, registry, engine),
               std::runtime_error);
}

TEST(Scheduler, ReassignThrowsWhenNobodyIsLeft) {
  const auto plan = saturated_plan(4, 2);
  plat::Scheduler scheduler(plan);
  plat::Registry registry;
  registry.enroll(plat::Principal::kHonest);
  registry.enroll(plat::Principal::kHonest);
  auto engine = redund::rng::make_stream(42, 0);
  scheduler.deal(registry, engine);

  registry.blacklist(0);
  registry.blacklist(1);
  EXPECT_THROW(scheduler.reassign_from(0, registry, engine),
               std::runtime_error);
}

TEST(Scheduler, ReassignFromSurvivesWhenALateEnrolleeCanAbsorb) {
  // Same saturated start, but a fresh identity enrolled after the deal can
  // absorb every unit of the blacklisted one.
  const auto plan = saturated_plan(5, 2);
  plat::Scheduler scheduler(plan);
  plat::Registry registry;
  registry.enroll(plat::Principal::kHonest);
  registry.enroll(plat::Principal::kHonest);
  auto engine = redund::rng::make_stream(43, 0);
  scheduler.deal(registry, engine);

  const auto fresh = registry.enroll(plat::Principal::kHonest);
  registry.blacklist(1);
  const auto moved = scheduler.reassign_from(1, registry, engine);
  EXPECT_EQ(moved.size(), 5u);
  for (const auto& unit : units(scheduler)) {
    EXPECT_NE(unit.assignee, 1u);
  }
  std::int64_t absorbed = 0;
  for (const auto& unit : units(scheduler)) absorbed += unit.assignee == fresh;
  EXPECT_EQ(absorbed, 5);
}

TEST(Scheduler, TryReassignUnitReturnsNulloptWhenSaturated) {
  const auto plan = saturated_plan(3, 2);
  plat::Scheduler scheduler(plan, 1);
  plat::Registry registry;
  registry.enroll(plat::Principal::kHonest);
  registry.enroll(plat::Principal::kHonest);
  auto engine = redund::rng::make_stream(44, 0);
  scheduler.deal(registry, engine);

  // Every other identity already holds the unit's task, so the unit must
  // stay put — and its holder must keep the hold (a later replica attempt
  // still sees the task as fully covered).
  const auto before = units(scheduler)[0];
  EXPECT_EQ(scheduler.try_reassign_unit(0, registry, engine), std::nullopt);
  EXPECT_EQ(units(scheduler)[0].assignee, before.assignee);
  EXPECT_EQ(scheduler.try_add_replica(before.task, registry, engine),
            std::nullopt);
  EXPECT_THROW((void)scheduler.try_reassign_unit(999, registry, engine),
               std::out_of_range);
}

TEST(Scheduler, TryAddReplicaUsesLateEnrolleeAndKeepsOneCopyRule) {
  const auto plan = saturated_plan(3, 2);
  plat::Scheduler scheduler(plan, 2);
  plat::Registry registry;
  registry.enroll(plat::Principal::kHonest);
  registry.enroll(plat::Principal::kHonest);
  auto engine = redund::rng::make_stream(45, 0);
  scheduler.deal(registry, engine);

  const auto fresh = registry.enroll(plat::Principal::kHonest);
  const auto replica = scheduler.try_add_replica(0, registry, engine);
  ASSERT_TRUE(replica.has_value());
  EXPECT_EQ(*replica, 6u);  // Appended after the 3x2 dealt units.
  EXPECT_EQ(units(scheduler)[*replica].task, 0);
  EXPECT_EQ(units(scheduler)[*replica].assignee, fresh);
  // The fresh identity now holds task 0; a second replica of the same task
  // has nowhere to go again.
  EXPECT_EQ(scheduler.try_add_replica(0, registry, engine), std::nullopt);
  EXPECT_THROW((void)scheduler.try_add_replica(99, registry, engine),
               std::out_of_range);

  std::set<std::pair<std::int64_t, plat::ParticipantId>> seen;
  for (const auto& unit : units(scheduler)) {
    EXPECT_TRUE(seen.insert({unit.task, unit.assignee}).second);
  }
}

TEST(Scheduler, RunsListEachTasksUnitsInUnitOrder) {
  const auto plan = small_balanced_plan(300, 0.5);
  plat::Scheduler scheduler(plan, 1);
  plat::Registry registry;
  for (int i = 0; i < 30; ++i) registry.enroll(plat::Principal::kHonest);
  auto engine = redund::rng::make_stream(9, 0);
  scheduler.deal(registry, engine);
  const auto replica = scheduler.try_add_replica(4, registry, engine);
  ASSERT_TRUE(replica.has_value());

  std::int64_t listed = 0;
  for (std::size_t t = 0; t < static_cast<std::size_t>(scheduler.task_count());
       ++t) {
    const auto run = scheduler.run(t);
    EXPECT_EQ(static_cast<std::int64_t>(run.size()),
              scheduler.multiplicity(t) + (t == 4 ? 1 : 0));
    for (std::size_t i = 0; i < run.size(); ++i) {
      EXPECT_EQ(scheduler.task_of(run[i]), t);
      if (i > 0) {
        EXPECT_LT(run[i - 1], run[i]);
      }
    }
    listed += static_cast<std::int64_t>(run.size());
  }
  EXPECT_EQ(listed, scheduler.unit_count());
  EXPECT_EQ(scheduler.run(4).back(), *replica);
}

TEST(Scheduler, TryAddReplicaThrowsBeforeAnyDrawWhenTheBudgetIsSpent) {
  const auto plan = saturated_plan(3, 2);
  plat::Scheduler scheduler(plan);  // No replica budget.
  plat::Registry registry;
  for (int i = 0; i < 4; ++i) registry.enroll(plat::Principal::kHonest);
  auto engine = redund::rng::make_stream(46, 0);
  scheduler.deal(registry, engine);

  auto untouched = engine;
  EXPECT_THROW((void)scheduler.try_add_replica(1, registry, engine),
               std::length_error);
  EXPECT_EQ(engine(), untouched());
  EXPECT_EQ(scheduler.unit_count(), 6);
}

TEST(Scheduler, RejectsPlansBeyond32BitLanesBeforeAllocating) {
  // 2^31 units would take gigabytes of lanes; a pass shows the bound is
  // checked before any of them is allocated.
  EXPECT_THROW(plat::Scheduler(saturated_plan(std::int64_t{1} << 30, 2)),
               std::invalid_argument);
  // 2^20 units, but the replica budget adds 2^31 slots.
  EXPECT_THROW(
      plat::Scheduler(saturated_plan(std::int64_t{1} << 20, 1), 1 << 11),
      std::invalid_argument);
  EXPECT_THROW(plat::Scheduler(saturated_plan(3, 2), -1),
               std::invalid_argument);
}

/// FNV-1a over the unit count and every unit's (task, assignee), in unit
/// order.
std::uint64_t unit_table_digest(const plat::Scheduler& scheduler) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFFU;
      hash *= 0x100000001b3ULL;
    }
  };
  mix(static_cast<std::uint64_t>(scheduler.unit_count()));
  for (std::size_t u = 0; u < static_cast<std::size_t>(scheduler.unit_count());
       ++u) {
    mix(static_cast<std::uint64_t>(scheduler.task_of(u)));
    mix(static_cast<std::uint64_t>(scheduler.assignee_of(u)));
  }
  return hash;
}

TEST(Scheduler, DealAndMovesArePinned) {
  // Every draw the scheduler makes — the deal's two shuffles and one-copy
  // probes, the uniform re-issue and replica picks, reassign_from's
  // round-robin — lands in the unit table. Pinning its digest at three
  // points catches any change to those draws or to their order.
  const auto plan = small_balanced_plan(600, 0.5);
  ASSERT_GT(plan.ringer_count, 0);
  plat::Scheduler scheduler(plan, 2);
  plat::Registry registry;
  for (int i = 0; i < 24; ++i) registry.enroll(plat::Principal::kHonest);
  registry.enroll_sybils(8);
  auto engine = redund::rng::make_stream(2024, 0);
  scheduler.deal(registry, engine);
  EXPECT_EQ(unit_table_digest(scheduler), 0x4b693be0e363fe09ULL);

  // One blacklisted identity and one late enrollee; then a fixed script
  // of single-unit re-issues with a replica on every fourth step (task 0
  // takes both of its budgeted replicas).
  registry.blacklist(5);
  (void)registry.enroll(plat::Principal::kHonest);
  const auto dealt = static_cast<std::size_t>(scheduler.unit_count());
  std::int64_t moved = 0;
  std::int64_t added = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    moved += scheduler.try_reassign_unit((i * 7919) % dealt, registry, engine)
                 .has_value();
    if (i % 4 == 0) {
      const auto task = static_cast<std::int64_t>((i / 4) * 11);
      added += scheduler.try_add_replica(task, registry, engine).has_value();
    }
  }
  added += scheduler.try_add_replica(0, registry, engine).has_value();
  EXPECT_EQ(moved, 200);
  EXPECT_EQ(added, 51);
  EXPECT_EQ(unit_table_digest(scheduler), 0xeaeef21a563e3e7bULL);

  const auto reassigned = scheduler.reassign_from(5, registry, engine);
  EXPECT_EQ(reassigned.size(), 20U);
  EXPECT_EQ(unit_table_digest(scheduler), 0xadd3dcaf760e38ebULL);
}

// ----------------------------------------------------------------- campaign

TEST(Campaign, AllHonestNoErrorsIsClean) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(400, 0.5);
  config.honest_participants = 30;
  const auto report = plat::run_campaign(config);
  EXPECT_EQ(report.final_corrupt_tasks, 0);
  EXPECT_EQ(report.mismatches_detected, 0);
  EXPECT_EQ(report.ringer_catches, 0);
  EXPECT_FALSE(report.alarm_fired());
  EXPECT_EQ(report.final_correct_tasks, report.tasks);
  EXPECT_EQ(report.blacklisted_identities, 0);
}

TEST(Campaign, CollusionTriggersAlarmOnBalancedPlan) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(2000, 0.5);
  config.honest_participants = 60;
  config.sybil_identities = 15;  // ~20% of identities.
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  const auto report = plat::run_campaign(config);
  EXPECT_GT(report.adversary_cheat_attempts, 0);
  EXPECT_TRUE(report.alarm_fired());
  EXPECT_GT(report.blacklisted_identities, 0);
}

TEST(Campaign, ReactionRestoresIntegrityWithRecompute) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(2000, 0.75);  // Strong protection.
  config.honest_participants = 60;
  config.sybil_identities = 15;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.resolution = plat::Resolution::kRecompute;
  config.reactive = true;
  const auto report = plat::run_campaign(config);
  ASSERT_TRUE(report.alarm_fired());
  // Reaction requeues the caught identities' work; most corruption gets
  // cleaned (fully-held tasks by *uncaught* identities may survive).
  EXPECT_LT(report.corruption_rate(), 0.05);
  EXPECT_GT(report.requeued_units, 0);
}

TEST(Campaign, NonReactiveLeavesCorruption) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(2000, 0.5);
  config.honest_participants = 60;
  config.sybil_identities = 15;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.reactive = false;

  const auto passive = plat::run_campaign(config);
  config.reactive = true;
  const auto reactive = plat::run_campaign(config);
  EXPECT_GT(passive.final_corrupt_tasks, reactive.final_corrupt_tasks);
  EXPECT_EQ(passive.blacklisted_identities, 0);
}

TEST(Campaign, MajorityVoteCanBeFooledRecomputeCannot) {
  // With a large colluding share, plurality can crown the wrong value and
  // even blacklist honest truth-tellers; recompute never accepts a wrong
  // value on a contested task.
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(2000, 0.5);
  config.honest_participants = 40;
  config.sybil_identities = 40;  // Half the identities collude.
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.reactive = false;

  config.resolution = plat::Resolution::kRecompute;
  const auto recompute = plat::run_campaign(config);
  config.resolution = plat::Resolution::kMajorityVote;
  const auto majority = plat::run_campaign(config);

  EXPECT_GT(majority.final_corrupt_tasks, recompute.final_corrupt_tasks);
  EXPECT_EQ(recompute.false_accusations, 0);
  EXPECT_GT(majority.false_accusations, 0);
}

TEST(Campaign, BenignErrorsSurfaceAsMismatchesWithMultiplicityFloor) {
  // Section-7 motivation: with a multiplicity floor of 2, benign errors are
  // caught as mismatches; with singletons (plain Balanced), some corrupt
  // the output silently.
  plat::CampaignConfig config;
  config.honest_participants = 50;
  config.benign_error_rate = 0.02;
  config.reactive = false;

  config.plan = small_balanced_plan(2000, 0.5);  // ~57% singletons.
  const auto singletons = plat::run_campaign(config);

  const auto floored = core::realize(
      core::make_min_multiplicity(2000.0, 0.5, 2, {.truncate_below = 1e-9}),
      2000, 0.5);
  config.plan = floored;
  const auto with_floor = plat::run_campaign(config);

  EXPECT_GT(singletons.final_corrupt_tasks, 0);
  EXPECT_EQ(with_floor.final_corrupt_tasks, 0);
  EXPECT_GT(with_floor.mismatches_detected, 0);
}

TEST(Campaign, DeterministicForFixedSeed) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(1000, 0.5);
  config.honest_participants = 40;
  config.sybil_identities = 10;
  config.seed = 77;
  const auto a = plat::run_campaign(config);
  const auto b = plat::run_campaign(config);
  EXPECT_EQ(a.final_corrupt_tasks, b.final_corrupt_tasks);
  EXPECT_EQ(a.mismatches_detected, b.mismatches_detected);
  EXPECT_EQ(a.blacklisted_identities, b.blacklisted_identities);
  EXPECT_EQ(a.requeued_units, b.requeued_units);
}

TEST(CampaignSeries, BlacklistAccumulatesAcrossRounds) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(1500, 0.5);
  config.honest_participants = 60;
  config.sybil_identities = 10;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.reactive = true;

  const auto reports = plat::run_campaign_series(config, 4, 10);
  ASSERT_EQ(reports.size(), 4u);
  // Every round's fresh Sybils cheat and get caught; with replenishment 10,
  // cumulative blacklisting keeps pace with enrollment.
  std::int64_t blacklisted_total = 0;
  for (const auto& report : reports) {
    EXPECT_TRUE(report.alarm_fired());
    blacklisted_total += report.blacklisted_identities;
    // Reaction holds residual corruption very low every round.
    EXPECT_LT(report.corruption_rate(), 0.05);
  }
  EXPECT_GE(blacklisted_total, 30);  // ~10 per round across 4 rounds.
}

TEST(CampaignSeries, PassiveSupervisorBleedsEveryRound) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(1500, 0.5);
  config.honest_participants = 60;
  config.sybil_identities = 10;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.reactive = false;

  const auto reports = plat::run_campaign_series(config, 3, 0);
  for (const auto& report : reports) {
    EXPECT_GT(report.final_corrupt_tasks, 0);
    EXPECT_EQ(report.blacklisted_identities, 0);
  }
}

TEST(CampaignSeries, RoundsAreIndependentlySeeded) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(800, 0.5);
  config.honest_participants = 40;
  config.sybil_identities = 8;
  config.reactive = false;
  const auto reports = plat::run_campaign_series(config, 3, 0);
  // Same plan, same population; different seeds should give (almost surely)
  // different cheat-attempt counts.
  EXPECT_FALSE(reports[0].adversary_cheat_attempts ==
                   reports[1].adversary_cheat_attempts &&
               reports[1].adversary_cheat_attempts ==
                   reports[2].adversary_cheat_attempts);
}

TEST(CampaignSeries, RejectsBadArguments) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(100, 0.5);
  config.honest_participants = 20;
  EXPECT_THROW((void)plat::run_campaign_series(config, 0, 1),
               std::invalid_argument);
  EXPECT_THROW((void)plat::run_campaign_series(config, 2, -1),
               std::invalid_argument);
}

TEST(Campaign, RejectsBadConfig) {
  plat::CampaignConfig config;
  config.plan = small_balanced_plan(100, 0.5);
  config.honest_participants = 0;
  EXPECT_THROW((void)plat::run_campaign(config), std::invalid_argument);
  config.honest_participants = 10;
  config.benign_error_rate = 1.5;
  EXPECT_THROW((void)plat::run_campaign(config), std::invalid_argument);
}

}  // namespace
