// Determinism auditor (runtime/audit.hpp): report fingerprints are
// value-sensitive, the merge fold is demonstrably order-sensitive (the
// bug class the auditor exists to catch), and a small real matrix passes.

#include "runtime/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

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

void fill(std::int64_t& value, int k) { value = 10 * k; }
void fill(double& value, int k) { value = 10.0 * k + 0.5; }
void fill(runtime::CampaignOutcome& value, int) {
  value = runtime::CampaignOutcome::kStalled;
}
void bump(std::int64_t& value) { value += 1; }
void bump(double& value) { value += 1.0; }
void bump(runtime::CampaignOutcome& value) {
  value = runtime::CampaignOutcome::kAborted;
}

/// A shard report whose every scalar field and series counter is distinct
/// and non-zero (`base` offsets them all), with its task counts balanced
/// the way the shard merge checks them.
runtime::RuntimeReport filled_report(int base) {
  runtime::RuntimeReport report;
  int k = base;
  runtime::for_each_field(
      [&](const runtime::FieldInfo&, auto& value) { fill(value, ++k); },
      report);
  report.tasks = 1'000'000;
  report.tasks_valid = report.final_correct_tasks + report.final_corrupt_tasks;
  for (const double time : {25.0, 50.0}) {
    runtime::RuntimeSample& sample = report.series.emplace_back();
    sample.time = time;
    runtime::for_each_counter(
        [&](const char*, std::int64_t& value) { fill(value, ++k); }, sample);
  }
  return report;
}

std::string printed(const runtime::RuntimeReport& report) {
  std::ostringstream out;
  runtime::print(out, report);
  return out.str();
}

/// Which scalar fields differ between two reports, in list order.
std::vector<bool> differing_fields(const runtime::RuntimeReport& a,
                                   const runtime::RuntimeReport& b) {
  std::vector<bool> differs;
  runtime::for_each_field(
      [&](const runtime::FieldInfo&, const auto& x, const auto& y) {
        differs.push_back(x != y);
      },
      a, b);
  return differs;
}

// Walks the one field list: each scalar field and each series counter,
// perturbed alone in one shard, must move the fingerprint, the printed
// report and the shard merge. A field some consumer skips fails here.
TEST(ReportFingerprint, EveryKindOfFieldIsCovered) {
  // Shard a holds the larger values, so every max-merged field of the
  // merge comes from it; shard b detected later, so the earliest
  // detection does too.
  const runtime::RuntimeReport a = filled_report(100);
  runtime::RuntimeReport b = filled_report(0);
  b.outcome = runtime::CampaignOutcome::kCompleted;
  b.first_detection_time = a.first_detection_time + 1000.0;
  const std::uint64_t base = runtime::report_fingerprint(a);
  const std::string base_text = printed(a);
  const runtime::RuntimeReport base_merge =
      runtime::ShardedSupervisor::merge({a, b});

  std::size_t fields = 0;
  runtime::for_each_field(
      [&](const runtime::FieldInfo&, const auto&) { ++fields; }, a);
  ASSERT_GT(fields, 40u);
  for (std::size_t k = 0; k < fields; ++k) {
    runtime::RuntimeReport perturbed = a;
    std::string name;
    std::size_t at = 0;
    runtime::for_each_field(
        [&](const runtime::FieldInfo& info, auto& value) {
          if (at++ != k) return;
          name = info.name;
          bump(value);
        },
        perturbed);
    SCOPED_TRACE(name);
    const std::vector<bool> own = differing_fields(a, perturbed);
    EXPECT_EQ(std::count(own.begin(), own.end(), true), 1);  // No alias.
    EXPECT_NE(runtime::report_fingerprint(perturbed), base);
    EXPECT_NE(printed(perturbed), base_text);

    // The merge checks that validated tasks split into correct + corrupt;
    // rebalance through a field other than the perturbed one.
    if (name == "tasks_valid") {
      perturbed.final_correct_tasks += 1;
    } else {
      perturbed.tasks_valid =
          perturbed.final_correct_tasks + perturbed.final_corrupt_tasks;
    }
    const runtime::RuntimeReport merged =
        runtime::ShardedSupervisor::merge({perturbed, b});
    EXPECT_TRUE(differing_fields(base_merge, merged)[k]);
  }

  std::size_t counters = 0;
  runtime::for_each_counter([&](const char*, std::int64_t) { ++counters; },
                            a.series[1]);
  ASSERT_EQ(counters, 7u);
  for (std::size_t k = 0; k < counters; ++k) {
    runtime::RuntimeReport perturbed = a;
    std::size_t at = 0;
    runtime::for_each_counter(
        [&](const char*, std::int64_t& value) {
          if (at++ == k) bump(value);
        },
        perturbed.series[1]);
    SCOPED_TRACE(k);
    EXPECT_NE(runtime::report_fingerprint(perturbed), base);
    EXPECT_NE(printed(perturbed), base_text);
    const runtime::RuntimeReport merged =
        runtime::ShardedSupervisor::merge({perturbed, b});
    EXPECT_NE(runtime::report_fingerprint(merged),
              runtime::report_fingerprint(base_merge));
  }

  runtime::RuntimeReport floating = sample_report();
  floating.makespan += 1e-12;  // one-ulp-ish drift must not be smoothed over
  EXPECT_NE(runtime::report_fingerprint(floating),
            runtime::report_fingerprint(sample_report()));

  runtime::RuntimeReport series_length = a;
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
