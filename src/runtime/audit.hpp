// Determinism auditor: a logical race detector for the campaign runtime.
//
// The project's determinism contract says a campaign's RuntimeReport is a
// pure function of (config, shard count) — the thread-pool size and where
// a crash/resume cycle cuts the run must not change a single byte. TSan
// can prove the absence of *data* races, but an ordering bug — an
// unordered-container iteration feeding a merge, a calendar-queue bucket
// mis-sort, a resume that replays one event short — is invisible to it:
// every interleaving is memory-safe, the output is just wrong on some of
// them.
//
// The auditor closes that gap empirically: it runs a matrix of equivalent
// executions —
//
//     shard counts x thread-pool sizes x kill/resume points
//
// — fingerprints every resulting report with FNV-1a over a canonical
// serialization, and fails loudly when any cell of a must-agree group
// diverges. Reports from different shard counts legitimately differ (the
// shards draw from different derived seeds); everything else must match
// bit-for-bit.
//
// Exposed as `redundctl audit`; the quick matrix runs in CI on every
// push.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "runtime/report.hpp"
#include "runtime/supervisor.hpp"

namespace redund::runtime {

/// FNV-1a fingerprint of every field of a report, including the full time
/// series, via a canonical StateWriter serialization (doubles as IEEE-754
/// bit patterns). Two reports fingerprint equal iff they are value-equal.
[[nodiscard]] std::uint64_t report_fingerprint(const RuntimeReport& report);

/// The audit matrix. Defaults are the full matrix: {1,2,8} shards x {1,4}
/// threads x 2 kill points.
struct AuditOptions {
  /// Campaign under audit: a mid-size balanced plan; override for scale.
  std::int64_t target_tasks = 1200;
  std::int64_t honest_participants = 90;
  std::int64_t sybil_identities = 18;
  std::uint64_t seed = 0xA0D17D15EEDULL;

  std::vector<std::int64_t> shard_counts = {1, 2, 8};
  std::vector<std::size_t> thread_counts = {1, 4};
  /// Kill/resume cut points as fractions of each shard's uninterrupted
  /// event count.
  std::vector<double> kill_fractions = {0.25, 0.5};

  /// Directory for the scratch journals of the kill/resume legs; created
  /// if missing and left in place. Empty: a fresh directory under the
  /// system temp path, removed after a passing run and kept (its path
  /// logged) after a failing one.
  std::string scratch_dir;

  /// Run the whole matrix a second time with the online adaptive
  /// controller enabled over a drifting-adversary fault schedule, so
  /// kReplan events, re-plan decisions, and boost/release bookkeeping
  /// are inside the byte-identity contract too.
  bool include_adaptive = true;
};

/// Shrinks the matrix for CI/pre-commit latency: a smaller campaign,
/// shards {1,2}, threads {1,2}, one kill point.
[[nodiscard]] AuditOptions quick_audit_options();

struct AuditResult {
  bool passed = false;
  std::size_t runs = 0;        ///< Campaign executions performed.
  std::size_t groups = 0;      ///< Must-agree fingerprint groups checked.
  std::vector<std::string> divergences;  ///< One line per disagreeing cell.
};

/// Runs the matrix, logging one line per group to `log`. Deterministic:
/// two invocations with equal options produce identical logs and results.
[[nodiscard]] AuditResult run_determinism_audit(const AuditOptions& options,
                                                std::ostream& log);

}  // namespace redund::runtime
