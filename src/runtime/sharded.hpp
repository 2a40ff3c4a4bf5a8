// Sharded parallel campaigns: one large asynchronous campaign split into S
// independent sub-campaigns that run concurrently on a ThreadPool and
// merge into one RuntimeReport.
//
// The split is by *fleet*, not by lock: each shard gets a slice of the
// realized plan's multiplicity classes, of the ringers, and of the honest /
// sybil identity counts, plus its own derived seed — so the S event loops
// share no mutable state at all and scale without synchronization. This
// models a federation of supervisors, each responsible for a partition of
// the computation (the natural deployment once one supervisor's event loop
// saturates a core; cf. ROADMAP "heavy traffic" north star).
//
// Determinism contract: the merged report is a pure function of
// (base config, shard count). Shard configs are derived by shard index,
// results land in a slot array indexed by shard, and the merge folds in
// ascending shard order — the thread pool's size and scheduling order can
// not influence any byte of the output. The same holds for the time
// series: rows merge by sampled time, summing each shard's counters with
// carry-forward once a shard's campaign has ended.
//
// What sharding changes (and what it doesn't): per-shard collusion
// decisions see only the shard's own copy counts, and blacklists do not
// propagate across shards until the merge — a strictly weaker supervisor
// than the single-shard one, which is the price of lock-free scaling. The
// *plan-level* detection guarantees are unaffected: every shard still
// realizes the epsilon-level redundancy distribution over its slice.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "runtime/report.hpp"
#include "runtime/supervisor.hpp"

namespace redund::runtime {

/// Splits one campaign into independent per-shard sub-campaigns and runs
/// them in parallel. Construction derives the shard configs; run() executes
/// them on a pool and merges.
class ShardedSupervisor {
 public:
  /// Derives `shards` sub-campaign configs from `base`. The effective shard
  /// count is clamped to the task count and the honest participant count
  /// (every shard needs at least one task's worth of plan and one honest
  /// identity), so any shards >= 1 is valid.
  ShardedSupervisor(const RuntimeConfig& base, std::int64_t shards);

  /// Shards actually used after clamping.
  [[nodiscard]] std::int64_t shard_count() const noexcept {
    return static_cast<std::int64_t>(configs_.size());
  }

  /// The derived per-shard configurations, in shard order.
  [[nodiscard]] const std::vector<RuntimeConfig>& shard_configs()
      const noexcept {
    return configs_;
  }

  /// Runs every shard's event loop across `pool` (the calling thread
  /// participates) and returns the merged report. Bit-identical output for
  /// any pool size. Blocks inside parallel_for until every shard
  /// completes. Safe to call from inside a pool job: the pool is then
  /// busy, so the shards run inline on the calling thread.
  [[nodiscard]] RuntimeReport run(parallel::ThreadPool& pool) const;

  /// Resumes every shard from its journal and merges. A shard whose
  /// journal file does not exist is re-run from its seed instead: resume
  /// re-runs from the seed as well, so the merged report is bit-identical
  /// to run()'s either way, and losing any number of journal files costs
  /// only their verification. A journal that exists must verify: one of
  /// another config or seed, or one the re-run diverges from, throws
  /// std::runtime_error as resume_async_campaign does. Throws
  /// std::invalid_argument when journaling is not configured. Like run(),
  /// safe to call from inside a pool job.
  [[nodiscard]] RuntimeReport resume(parallel::ThreadPool& pool) const;

  /// Folds per-shard reports (in the given order) into one campaign-level
  /// report: counters sum, makespan/end_time are the max, first detection
  /// the min, detection latency the detection-weighted mean, the outcome
  /// the maximum severity across shards (one stalled shard stalls the
  /// campaign), and the series merge by sampled time with per-shard
  /// carry-forward.
  [[nodiscard]] static RuntimeReport merge(
      const std::vector<RuntimeReport>& reports);

 private:
  [[nodiscard]] RuntimeReport resume_shard_(std::size_t s) const;

  std::vector<RuntimeConfig> configs_;
};

/// One-call convenience: shard `base` `shards` ways and run on `pool`.
[[nodiscard]] RuntimeReport run_sharded_campaign(const RuntimeConfig& base,
                                                 std::int64_t shards,
                                                 parallel::ThreadPool& pool);

/// One-call convenience: shard `base` `shards` ways and resume every
/// shard from its journal. `base.journal.path` must
/// be the same path the original run was configured with.
[[nodiscard]] RuntimeReport resume_sharded_campaign(const RuntimeConfig& base,
                                                    std::int64_t shards,
                                                    parallel::ThreadPool& pool);

}  // namespace redund::runtime
