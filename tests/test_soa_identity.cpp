// Campaign-level byte-identity pins for the SoA hot-path refactor.
//
// The PR 7 data-oriented rewrite (structure-of-arrays unit/task tables,
// branchless quorum counting, batched sampler draws, scheduler holder
// index) must not move a single byte of any report. These tests pin the
// FNV-1a report fingerprints of representative campaigns as produced by
// the pre-refactor runtime, so any behavioural drift — a reordered draw,
// a changed tie-break, a mismatch resolved differently — fails loudly
// rather than silently shifting every downstream number.
//
// The configs mirror the determinism auditor's base campaigns plus a
// fault-heavy leg, covering: stragglers/dropouts/retries, adversary
// commits and the recomputes that resolve them, ringer catches,
// benign-error INCONCLUSIVE replicas, the online controller with a
// drifting adversary, the controller under overlapping blackouts and
// churn, the sharded merge, and every windowed fault kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/audit.hpp"
#include "runtime/journal.hpp"
#include "runtime/sharded.hpp"
#include "runtime/supervisor.hpp"

namespace redund::runtime {
namespace {

RuntimeConfig pinned_base_config() {
  RuntimeConfig config;
  config.plan = core::realize(
      core::make_balanced(300.0, 0.5, {.truncate_below = 1e-9}), 300, 0.5);
  config.honest_participants = 40;
  config.sybil_identities = 8;
  config.latency.straggler_fraction = 0.1;
  config.latency.dropout_probability = 0.02;
  config.sample_interval = 25.0;
  config.seed = 0xA0D17D15EEDULL;
  return config;
}

TEST(SoaIdentity, StaticCampaignMatchesPreRefactorFingerprint) {
  RuntimeConfig config = pinned_base_config();
  const RuntimeReport report = run_async_campaign(config);
  EXPECT_EQ(report_fingerprint(report), 0x6602968f97dd0fe3ULL);
}

/// Sampled, controller-on, two-shard campaign under a drifting adversary:
/// the merge folds every kind of field, the posterior means included.
RuntimeReport pinned_sharded_report() {
  RuntimeConfig config = pinned_base_config();
  config.control.enabled = true;
  config.control.epsilon = 0.5;
  config.control.replan_interval = 48;
  config.control.min_observations = 24;
  config.faults.events.push_back(
      {.time = 40.0, .kind = FaultKind::kPDrift, .fraction = 0.3});
  config.faults.events.push_back({.time = 160.0,
                                  .kind = FaultKind::kPDrift,
                                  .fraction = 0.9,
                                  .duration = 120.0});
  parallel::ThreadPool pool(2);
  return run_sharded_campaign(config, 2, pool);
}

TEST(SoaIdentity, AdaptiveShardedCampaignMatchesPreRefactorFingerprint) {
  EXPECT_EQ(report_fingerprint(pinned_sharded_report()),
            0x08204e8e5dde2455ULL);
}

// The printed report is a user-facing contract of its own: pin its bytes,
// not only the fingerprint, so a renamed row, a moved separator or a
// changed number format fails here.
TEST(SoaIdentity, PrintedShardedReportMatchesPinnedBytes) {
  std::ostringstream out;
  print(out, pinned_sharded_report());
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 68);
  EXPECT_EQ(fnv1a_hash(text), 0x9f674468f7becf8bULL) << text;
}

TEST(SoaIdentity, FaultedBenignCampaignMatchesPreRefactorFingerprint) {
  RuntimeConfig config = pinned_base_config();
  config.benign_error_rate = 0.02;
  config.faults.events.push_back({.time = 30.0,
                                  .kind = FaultKind::kBlackout,
                                  .fraction = 0.3,
                                  .duration = 20.0});
  config.faults.events.push_back({.time = 55.0,
                                  .kind = FaultKind::kDropoutBurst,
                                  .duration = 25.0,
                                  .probability = 0.5});
  config.faults.events.push_back({.time = 80.0,
                                  .kind = FaultKind::kMessageLoss,
                                  .duration = 25.0,
                                  .probability = 0.3});
  config.faults.events.push_back({.time = 105.0,
                                  .kind = FaultKind::kDuplication,
                                  .duration = 25.0,
                                  .probability = 0.5});
  config.faults.events.push_back({.time = 130.0,
                                  .kind = FaultKind::kCorruption,
                                  .duration = 25.0,
                                  .probability = 0.4});
  const RuntimeReport report = run_async_campaign(config);
  EXPECT_EQ(report_fingerprint(report), 0x6c3b9685a6cd851fULL);
}

/// The online controller and the blackout requeue in one campaign: the
/// controller boosts against a hostile opening and releases once the
/// adversary recedes, while two overlapping blackouts (some identities
/// caught by both) take part of the fleet offline, one identity leaves
/// inside the first and rejoins after both have ended. The re-plan mix
/// bookkeeping, the one-pass blackout requeue and the single-identity
/// kLeave sweep all run against each other here.
TEST(SoaIdentity, ControlledChurnCampaignMatchesPinnedFingerprint) {
  RuntimeConfig config = pinned_base_config();
  config.sybil_identities = 20;
  config.control.enabled = true;
  config.control.epsilon = 0.6;
  config.control.check_interval = 2.0;
  config.control.replan_interval = 24;
  config.control.min_observations = 16;
  config.faults.events.push_back(
      {.time = 15.0, .kind = FaultKind::kPDrift, .fraction = 0.02});
  config.faults.events.push_back({.time = 20.0,
                                  .kind = FaultKind::kBlackout,
                                  .fraction = 0.3,
                                  .duration = 30.0});
  config.faults.events.push_back({.time = 35.0,
                                  .kind = FaultKind::kBlackout,
                                  .fraction = 0.25,
                                  .duration = 30.0});
  config.faults.events.push_back(
      {.time = 30.0, .kind = FaultKind::kLeave, .participant = 3});
  config.faults.events.push_back(
      {.time = 75.0, .kind = FaultKind::kRejoin, .participant = 3});
  const RuntimeReport report = run_async_campaign(config);
  EXPECT_GT(report.control_boosts, 0);
  EXPECT_GT(report.control_releases, 0);
  EXPECT_GT(report.results_lost, 0);
  EXPECT_EQ(report.churn_rejoins, report.churn_leaves);
  EXPECT_EQ(report.tasks_valid, report.tasks);
  EXPECT_EQ(report_fingerprint(report), 0x691a9c0c22f9cc3bULL);
}

}  // namespace
}  // namespace redund::runtime
