// Determinism auditor (runtime/audit.hpp): report fingerprints are
// value-sensitive, the merge fold is demonstrably order-sensitive (the
// bug class the auditor exists to catch), and a small real matrix passes.

#include "runtime/audit.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>

#include "runtime/sharded.hpp"

namespace runtime = redund::runtime;

namespace {

runtime::RuntimeReport sample_report() {
  runtime::RuntimeReport report;
  report.tasks = 100;
  report.units_planned = 250;
  report.participants = 40;
  report.units_issued = 260;
  report.units_completed = 255;
  report.tasks_valid = 100;
  report.final_correct_tasks = 99;
  report.final_corrupt_tasks = 1;
  report.makespan = 512.25;
  report.end_time = 512.25;
  report.detections = 3;
  report.mean_detection_latency = 41.5;
  report.events_processed = 1234;
  report.series.push_back({25.0, 30, 28, 1, 1, 9});
  report.series.push_back({50.0, 61, 57, 2, 2, 20});
  return report;
}

TEST(ReportFingerprint, EqualReportsFingerprintEqual) {
  EXPECT_EQ(runtime::report_fingerprint(sample_report()),
            runtime::report_fingerprint(sample_report()));
}

TEST(ReportFingerprint, EveryKindOfFieldIsCovered) {
  const std::uint64_t base = runtime::report_fingerprint(sample_report());

  runtime::RuntimeReport counter = sample_report();
  counter.units_reissued += 1;
  EXPECT_NE(runtime::report_fingerprint(counter), base);

  runtime::RuntimeReport floating = sample_report();
  floating.makespan += 1e-12;  // one-ulp-ish drift must not be smoothed over
  EXPECT_NE(runtime::report_fingerprint(floating), base);

  runtime::RuntimeReport outcome = sample_report();
  outcome.outcome = runtime::CampaignOutcome::kStalled;
  EXPECT_NE(runtime::report_fingerprint(outcome), base);

  runtime::RuntimeReport series_value = sample_report();
  series_value.series[1].tasks_valid += 1;
  EXPECT_NE(runtime::report_fingerprint(series_value), base);

  runtime::RuntimeReport series_length = sample_report();
  series_length.series.pop_back();
  EXPECT_NE(runtime::report_fingerprint(series_length), base);
}

// The canonical logical race the auditor exists to catch: feeding the
// shard merge in nondeterministic order (say, by iterating a
// std::unordered_map of shard results). The detection-latency fold is a
// float sum, so associativity does not hold: (0.1 + 0.2) + 0.3 and
// (0.3 + 0.2) + 0.1 differ in the last ulp, the merged reports differ,
// and the fingerprints diverge. This is exactly the injected-bug fixture
// from the acceptance bar, reduced to its arithmetic core.
TEST(ReportFingerprint, MergeOrderDivergenceIsDetectable) {
  auto detection_only = [](double latency) {
    runtime::RuntimeReport report;
    report.detections = 1;
    report.first_detection_time = latency;
    report.mean_detection_latency = latency;
    return report;
  };
  const std::vector<runtime::RuntimeReport> forward = {
      detection_only(0.1), detection_only(0.2), detection_only(0.3)};
  const std::vector<runtime::RuntimeReport> reversed = {
      detection_only(0.3), detection_only(0.2), detection_only(0.1)};

  const runtime::RuntimeReport a = runtime::ShardedSupervisor::merge(forward);
  const runtime::RuntimeReport b = runtime::ShardedSupervisor::merge(reversed);

  // Same multiset of inputs, different fold order, different bits.
  EXPECT_NE(a.mean_detection_latency, b.mean_detection_latency);
  EXPECT_NE(runtime::report_fingerprint(a), runtime::report_fingerprint(b));

  // And the fixed order the supervisor actually uses is reproducible.
  EXPECT_EQ(runtime::report_fingerprint(a),
            runtime::report_fingerprint(runtime::ShardedSupervisor::merge(forward)));
}

TEST(DeterminismAudit, SmallMatrixAgreesAcrossTheBoard) {
  runtime::AuditOptions options = runtime::quick_audit_options();
  options.target_tasks = 120;
  options.honest_participants = 24;
  options.sybil_identities = 5;
  options.shard_counts = {1, 2};
  options.thread_counts = {1};
  options.kill_fractions = {0.5};
  options.scratch_dir =
      (std::filesystem::path(::testing::TempDir()) / "audit-scratch")
          .string();

  std::ostringstream log;
  const runtime::AuditResult result =
      runtime::run_determinism_audit(options, log);

  EXPECT_TRUE(result.passed) << log.str();
  EXPECT_TRUE(result.divergences.empty()) << log.str();
  // 2 shard-count groups x {static, adaptive}; each runs a reference
  // plus queue/thread/kill cells.
  EXPECT_EQ(result.groups, 4u);
  EXPECT_GT(result.runs, result.groups);

  // Determinism of the auditor itself: same options, same log.
  std::ostringstream log2;
  const runtime::AuditResult again =
      runtime::run_determinism_audit(options, log2);
  EXPECT_TRUE(again.passed);
  EXPECT_EQ(again.runs, result.runs);
  EXPECT_EQ(log2.str(), log.str());
}

TEST(DeterminismAudit, DefaultScratchLeavesNothingBehind) {
  // No scratch_dir: the journals go to a fresh directory under the system
  // temp path (TMPDIR, pointed at an empty directory here), and a passing
  // run removes it.
  const std::filesystem::path tmp =
      std::filesystem::path(::testing::TempDir()) / "audit-default-tmp";
  std::filesystem::remove_all(tmp);
  std::filesystem::create_directories(tmp);
  const char* saved = std::getenv("TMPDIR");
  const std::string saved_value = saved != nullptr ? saved : "";
  ::setenv("TMPDIR", tmp.c_str(), 1);

  runtime::AuditOptions options = runtime::quick_audit_options();
  options.target_tasks = 120;
  options.honest_participants = 24;
  options.sybil_identities = 5;
  options.shard_counts = {1};
  options.thread_counts = {1};
  options.include_adaptive = false;
  std::ostringstream log;
  const runtime::AuditResult result =
      runtime::run_determinism_audit(options, log);

  if (saved != nullptr) {
    ::setenv("TMPDIR", saved_value.c_str(), 1);
  } else {
    ::unsetenv("TMPDIR");
  }
  EXPECT_TRUE(result.passed) << log.str();
  EXPECT_TRUE(std::filesystem::is_empty(tmp));
  std::filesystem::remove_all(tmp);
}

}  // namespace
