// Crash-recovery equivalence for the journaled supervisor: kill the event
// loop at any event index, resume (a verified re-run from the seed), and
// the final report is byte-identical to the uninterrupted run — across
// churn, network, and dropout-burst fault scenarios. Also covers the
// journal's error paths: foreign config/seed or format version, tampered
// digests (replay divergence), hostile bytes, and bad arguments.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/audit.hpp"
#include "runtime/fault.hpp"
#include "runtime/journal.hpp"
#include "runtime/sharded.hpp"
#include "runtime/supervisor.hpp"

namespace core = redund::core;
namespace runtime = redund::runtime;
namespace sim = redund::sim;

using runtime::FaultKind;

namespace {

core::RealizedPlan balanced_plan(std::int64_t n, double eps) {
  return core::realize(
      core::make_balanced(static_cast<double>(n), eps,
                          {.truncate_below = 1e-9}),
      n, eps);
}

std::string rendered(const runtime::RuntimeReport& report) {
  std::ostringstream out;
  runtime::print(out, report);
  return out.str();
}

std::string journal_path(const std::string& tag) {
  return testing::TempDir() + "redund_recovery_" + tag + ".wal";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Resumes `config` and expects std::runtime_error naming a replay
/// divergence.
void expect_divergence(const runtime::RuntimeConfig& config) {
  try {
    (void)runtime::resume_async_campaign(config);
    ADD_FAILURE() << "resume accepted a tampered journal";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("journal replay divergence"),
              std::string::npos)
        << error.what();
  }
}

// Scenario 1: churn — individual leaves/rejoins plus a correlated
// blackout, with an adversary in the fleet so validation state is rich.
runtime::RuntimeConfig churn_scenario() {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(150, 0.5);
  config.honest_participants = 15;
  config.sybil_identities = 5;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.latency.dropout_probability = 0.05;
  config.latency.straggler_fraction = 0.2;
  config.sample_interval = 5.0;
  config.faults.events.push_back({.time = 3.0, .kind = FaultKind::kLeave,
                                  .participant = 2});
  config.faults.events.push_back({.time = 5.0, .kind = FaultKind::kLeave,
                                  .participant = 7});
  config.faults.events.push_back({.time = 8.0, .kind = FaultKind::kBlackout,
                                  .fraction = 0.4, .duration = 10.0});
  config.faults.events.push_back({.time = 20.0, .kind = FaultKind::kRejoin,
                                  .participant = 2});
  config.faults.events.push_back({.time = 25.0, .kind = FaultKind::kRejoin,
                                  .participant = 7});
  config.journal.checkpoint_interval = 64;
  config.seed = 0xC4A5AULL;
  return config;
}

// Scenario 2: network pathology — loss, duplication, and corruption
// windows overlapping mid-campaign.
runtime::RuntimeConfig network_scenario() {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(150, 0.5);
  config.honest_participants = 18;
  config.sybil_identities = 2;
  config.latency.dropout_probability = 0.02;
  config.faults.events.push_back(
      {.time = 2.0, .kind = FaultKind::kMessageLoss, .duration = 15.0,
       .probability = 0.3});
  config.faults.events.push_back(
      {.time = 4.0, .kind = FaultKind::kDuplication, .duration = 12.0,
       .probability = 0.35});
  config.faults.events.push_back(
      {.time = 6.0, .kind = FaultKind::kCorruption, .duration = 10.0,
       .probability = 0.3});
  config.journal.checkpoint_interval = 96;
  config.seed = 0x4E7ULL;
  return config;
}

// Scenario 3: dropout burst on top of static dropouts, deep retry chains,
// adaptive replication exercising the score table.
runtime::RuntimeConfig burst_scenario() {
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(120, 0.5);
  config.honest_participants = 12;
  config.latency.dropout_probability = 0.1;
  config.retry.max_retries = 6;
  config.adaptive.reliability_floor = 0.5;
  config.faults.events.push_back(
      {.time = 1.0, .kind = FaultKind::kDropoutBurst, .duration = 12.0,
       .probability = 0.6});
  config.journal.checkpoint_interval = 48;
  config.seed = 0xB0057ULL;
  return config;
}

// Kills the campaign at five interior event indices; each resume must
// reproduce the uninterrupted run byte-for-byte. The cap has batch
// granularity, so a kill point inside the final batch may legitimately
// complete — then the returned report itself must already match.
void expect_recovery_equivalence(runtime::RuntimeConfig config,
                                 const std::string& tag) {
  config.journal.path.clear();
  const auto reference = runtime::run_async_campaign(config);
  const std::string expected = rendered(reference);
  ASSERT_GT(reference.events_processed, 12) << tag;

  config.journal.path = journal_path(tag);
  for (std::int64_t k = 1; k <= 5; ++k) {
    const std::int64_t kill = reference.events_processed * k / 6;
    const auto partial = runtime::run_async_campaign_capped(config, kill);
    if (!partial.has_value()) {
      const auto resumed = runtime::resume_async_campaign(config);
      EXPECT_EQ(rendered(resumed), expected)
          << tag << ": killed at event " << kill;
      EXPECT_EQ(resumed.events_processed, reference.events_processed);
      EXPECT_EQ(resumed.outcome, reference.outcome);
    } else {
      EXPECT_EQ(rendered(*partial), expected)
          << tag << ": cap " << kill << " outlived the campaign";
    }
  }
}

TEST(CrashRecovery, ChurnScenarioResumesBitIdentical) {
  expect_recovery_equivalence(churn_scenario(), "churn");
}

TEST(CrashRecovery, NetworkScenarioResumesBitIdentical) {
  expect_recovery_equivalence(network_scenario(), "network");
}

TEST(CrashRecovery, BurstScenarioResumesBitIdentical) {
  expect_recovery_equivalence(burst_scenario(), "burst");
}

TEST(CrashRecovery, CapBeyondTheEndReturnsTheFullReport) {
  auto config = churn_scenario();
  config.journal.path.clear();
  const std::string expected = rendered(runtime::run_async_campaign(config));

  config.journal.path = journal_path("fullcap");
  const auto capped =
      runtime::run_async_campaign_capped(config, 1 << 30);
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(rendered(*capped), expected);

  // The finished journal resumes to the same report (every digest and
  // the terminal record verified).
  const auto resumed = runtime::resume_async_campaign(config);
  EXPECT_EQ(rendered(resumed), expected);
}

TEST(CrashRecovery, ResumeBeforeTheFirstCheckpointReplaysFromTheStart) {
  auto config = network_scenario();
  config.journal.path.clear();
  const auto reference = runtime::run_async_campaign(config);

  // A digest interval longer than the campaign: the journal holds only
  // the digest written at the kill; resume must verify the re-run
  // against it.
  config.journal.path = journal_path("nocp");
  config.journal.checkpoint_interval = 1 << 30;
  const std::int64_t kill = reference.events_processed / 2;
  const auto partial = runtime::run_async_campaign_capped(config, kill);
  ASSERT_FALSE(partial.has_value());

  const auto contents = runtime::read_journal(config.journal.path);
  ASSERT_EQ(contents.tail.size(), 1u);
  EXPECT_GE(contents.tail[0].index, static_cast<std::uint64_t>(kill));
  EXPECT_FALSE(contents.completed);

  const auto resumed = runtime::resume_async_campaign(config);
  EXPECT_EQ(rendered(resumed), rendered(reference));
}

TEST(CrashRecovery, ForeignJournalIsRejected) {
  auto config = burst_scenario();
  config.journal.path = journal_path("foreign");
  const auto partial = runtime::run_async_campaign_capped(config, 200);
  ASSERT_FALSE(partial.has_value());

  auto wrong_seed = config;
  wrong_seed.seed ^= 1;
  EXPECT_THROW((void)runtime::resume_async_campaign(wrong_seed),
               std::runtime_error);

  auto wrong_config = config;
  wrong_config.honest_participants += 1;
  EXPECT_THROW((void)runtime::resume_async_campaign(wrong_config),
               std::runtime_error);

  // Journal options themselves are not part of the fingerprint — resuming
  // with a different checkpoint interval is legal.
  auto new_interval = config;
  new_interval.journal.checkpoint_interval = 999;
  EXPECT_NO_THROW((void)runtime::resume_async_campaign(new_interval));

  // A journal of an older format version is refused, naming the version.
  std::string text = read_file(config.journal.path);
  ASSERT_EQ(text.rfind("redund-journal-v3 ", 0), 0u);
  text.replace(0, 17, "redund-journal-v2");
  write_file(config.journal.path, text);
  try {
    (void)runtime::resume_async_campaign(config);
    ADD_FAILURE() << "resume accepted a redund-journal-v2 header";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("redund-journal-v2"),
              std::string::npos)
        << error.what();
  }
}

// The digest log is what keeps the re-run honest: a recorded digest the
// re-run does not reproduce, at its index or anywhere else, refuses the
// journal.
TEST(CrashRecovery, TamperedWalTailIsReplayDivergence) {
  auto config = churn_scenario();
  config.journal.path = journal_path("tamper");
  const auto partial = runtime::run_async_campaign_capped(config, 300);
  ASSERT_FALSE(partial.has_value());
  const std::string original = read_file(config.journal.path);

  // Flip the last digit of the last H record's digest.
  std::string text = original;
  const std::size_t line = text.rfind("\nH ");
  ASSERT_NE(line, std::string::npos);
  const std::size_t eol = text.find('\n', line + 1);
  ASSERT_NE(eol, std::string::npos);
  char& last_digit = text[eol - 1];
  last_digit = last_digit == '0' ? '1' : '0';
  write_file(config.journal.path, text);
  expect_divergence(config);

  // Move the first H record one event later: whether or not the re-run
  // has a batch boundary there, its digest there differs.
  text = original;
  const std::size_t first = text.find("\nH ");
  ASSERT_NE(first, std::string::npos);
  const std::size_t index_end = text.find(' ', first + 3);
  const std::uint64_t index =
      std::stoull(text.substr(first + 3, index_end - first - 3));
  text.replace(first + 3, index_end - first - 3, std::to_string(index + 1));
  write_file(config.journal.path, text);
  expect_divergence(config);
}

// Digest cadence x kill point: every interval, from one record per batch
// to none before the kill, resumes bit-identically.
TEST(CrashRecovery, MultiLevelCompositionSweepResumesBitIdentical) {
  for (const std::int64_t interval : {1, 7, 24, 1 << 30}) {
    auto config = churn_scenario();
    config.journal.checkpoint_interval = interval;
    expect_recovery_equivalence(config,
                                "cadence" + std::to_string(interval));
  }
}

// A crash mid-write leaves an unterminated final line; the reader must
// drop exactly that line and resume from the last complete record.
TEST(CrashRecovery, TornTailIsDroppedAndResumeStillMatches) {
  auto config = network_scenario();
  config.journal.path.clear();
  const auto reference = runtime::run_async_campaign(config);

  config.journal.path = journal_path("torn");
  config.journal.checkpoint_interval = 48;
  const auto partial = runtime::run_async_campaign_capped(
      config, reference.events_processed / 2);
  ASSERT_FALSE(partial.has_value());

  // Tear the tail: chop the final newline plus a few bytes, leaving a
  // partial record with no terminator.
  const auto size = std::filesystem::file_size(config.journal.path);
  ASSERT_GT(size, 16u);
  std::filesystem::resize_file(config.journal.path, size - 9);

  const auto contents = runtime::read_journal(config.journal.path);
  EXPECT_TRUE(contents.torn_tail);

  const auto resumed = runtime::resume_async_campaign(config);
  EXPECT_EQ(rendered(resumed), rendered(reference));
}

// Hostile bytes: a killed campaign's journal truncated at every byte
// offset, and separately with each byte XORed with 0x01. Every resume
// must either reproduce the uninterrupted report exactly or refuse with
// std::runtime_error — never crash, and never return anything else.
TEST(CrashRecovery, EveryTruncationAndByteFlipResumesExactlyOrThrows) {
  // A fault-free campaign keeps the ~1k resumes cheap enough for the
  // sanitizer CI stage.
  runtime::RuntimeConfig config;
  config.plan = balanced_plan(150, 0.5);
  config.honest_participants = 18;
  config.sybil_identities = 2;
  config.latency.dropout_probability = 0.02;
  config.seed = 0x4057113ULL;
  const auto reference = runtime::run_async_campaign(config);
  const std::uint64_t expected = runtime::report_fingerprint(reference);

  config.journal.path = journal_path("hostile");
  config.journal.checkpoint_interval = 16;
  ASSERT_FALSE(runtime::run_async_campaign_capped(
                   config, reference.events_processed / 2)
                   .has_value());
  const std::string original = read_file(config.journal.path);
  ASSERT_GT(original.size(), 64u);
  // Journal options are not part of the fingerprint: the resumes verify
  // every recorded digest but write only their terminal record, which
  // keeps the sweep's fsyncs to one per resume.
  config.journal.checkpoint_interval = 1 << 30;

  int resumed = 0;
  const auto resumes = [&](const std::string& bytes, const std::string& what) {
    write_file(config.journal.path, bytes);
    try {
      const auto report = runtime::resume_async_campaign(config);
      EXPECT_EQ(runtime::report_fingerprint(report), expected) << what;
      ++resumed;
      return true;
    } catch (const std::runtime_error&) {
      return false;
    }
  };
  for (std::size_t size = 0; size < original.size(); ++size) {
    (void)resumes(original.substr(0, size),
                  "truncated to " + std::to_string(size) + " bytes");
  }
  EXPECT_GT(resumed, 0);  // At least every clean prefix past the header.

  // A flip inside an H record's digest either changes the digest or makes
  // it unparsable: that resume must refuse.
  std::vector<bool> in_digest(original.size(), false);
  for (std::size_t line = original.find("\nH "); line != std::string::npos;
       line = original.find("\nH ", line + 1)) {
    const std::size_t eol = original.find('\n', line + 1);
    ASSERT_NE(eol, std::string::npos);
    for (std::size_t at = eol - 16; at < eol; ++at) in_digest[at] = true;
  }
  for (std::size_t at = 0; at < original.size(); ++at) {
    std::string flipped = original;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    const std::string what = "byte " + std::to_string(at) + " flipped";
    if (resumes(flipped, what)) {
      EXPECT_FALSE(in_digest[at]) << what << " inside a digest was accepted";
    }
  }
}

// Journal loss costs only verification: the fleet resumes bit-identically
// with any one shard's journal deleted, and with all of them deleted.
TEST(CrashRecovery, LosingAnyOrAllShardJournalsStillResumesBitIdentical) {
  auto base = churn_scenario();
  base.journal.path.clear();
  constexpr std::int64_t kShards = 3;
  redund::parallel::ThreadPool pool(2);
  const runtime::ShardedSupervisor plain(base, kShards);
  const std::string expected = rendered(plain.run(pool));

  base.journal.path = journal_path("lost");
  base.journal.checkpoint_interval = 32;
  const runtime::ShardedSupervisor sharded(base, kShards);
  ASSERT_EQ(sharded.shard_count(), kShards);

  for (std::int64_t lost = 0; lost <= kShards; ++lost) {
    EXPECT_EQ(rendered(sharded.run(pool)), expected);  // Rewrite journals.
    for (std::int64_t s = 0; s < kShards; ++s) {
      if (lost == kShards || s == lost) {  // lost == kShards: all of them.
        std::filesystem::remove(
            sharded.shard_configs()[static_cast<std::size_t>(s)].journal.path);
      }
    }
    EXPECT_EQ(rendered(sharded.resume(pool)), expected)
        << "lost shard " << (lost == kShards ? "all" : std::to_string(lost));
  }
}

TEST(CrashRecovery, ShardedResumeWithoutLossMatchesTheRun) {
  auto base = network_scenario();
  base.journal.path = journal_path("fleet");
  base.journal.checkpoint_interval = 64;
  redund::parallel::ThreadPool pool(2);
  const runtime::ShardedSupervisor sharded(base, 2);
  const std::string expected = rendered(sharded.run(pool));
  EXPECT_EQ(rendered(sharded.resume(pool)), expected);

  auto no_journal = network_scenario();
  no_journal.journal.path.clear();
  const runtime::ShardedSupervisor bare(no_journal, 2);
  EXPECT_THROW((void)bare.resume(pool), std::invalid_argument);
}

TEST(CrashRecovery, BadArgumentsAreRejected) {
  auto config = churn_scenario();
  config.journal.path = journal_path("badargs");
  EXPECT_THROW((void)runtime::run_async_campaign_capped(config, -1),
               std::invalid_argument);

  auto no_journal = config;
  no_journal.journal.path.clear();
  EXPECT_THROW((void)runtime::resume_async_campaign(no_journal),
               std::invalid_argument);

  auto missing = config;
  missing.journal.path = testing::TempDir() + "redund_recovery_missing.wal";
  std::remove(missing.journal.path.c_str());
  EXPECT_THROW((void)runtime::resume_async_campaign(missing),
               std::runtime_error);
}

}  // namespace
