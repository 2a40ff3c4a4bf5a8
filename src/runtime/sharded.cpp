#include "runtime/sharded.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "core/contracts.hpp"
#include "parallel/parallel_for.hpp"
#include "rng/engines.hpp"

namespace redund::runtime {

namespace {

constexpr std::uint64_t kShardSeedSalt = 0x5AA2DED5EEDULL;

/// Shard s's share of `total` under the fixed floor-plus-remainder rule:
/// every shard gets total/S, the first total%S shards one more. Summing
/// over s returns exactly `total`, and the rule is monotone (a shard never
/// gets a larger share of a smaller total), which keeps derived per-shard
/// quantities (e.g. tail tasks vs. their multiplicity class) consistent.
[[nodiscard]] std::int64_t share(std::int64_t total, std::int64_t shards,
                                 std::int64_t s) noexcept {
  return total / shards + (s < total % shards ? 1 : 0);
}

}  // namespace

ShardedSupervisor::ShardedSupervisor(const RuntimeConfig& base,
                                     std::int64_t shards) {
  if (shards < 1) {
    throw std::invalid_argument("ShardedSupervisor: shards must be >= 1");
  }
  // Every shard needs at least one task and one honest identity to be a
  // well-formed campaign of its own.
  std::int64_t s_count = shards;
  if (base.plan.task_count > 0) {
    s_count = std::min(s_count, base.plan.task_count);
  }
  if (base.honest_participants > 0) {
    s_count = std::min(s_count, base.honest_participants);
  }
  s_count = std::max<std::int64_t>(s_count, 1);

  // Per-shard seeds come from one SplitMix64 walk over the base seed, so
  // shard streams are decorrelated from each other and from the base
  // campaign's own streams (which key off base.seed directly).
  rng::SplitMix64 seed_mixer(base.seed ^ kShardSeedSalt);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(s_count));
  for (std::uint64_t& seed : seeds) seed = seed_mixer();

  configs_.reserve(static_cast<std::size_t>(s_count));
  for (std::int64_t s = 0; s < s_count; ++s) {
    RuntimeConfig shard = base;  // Policies, latency model, controller.
    shard.seed = seeds[static_cast<std::size_t>(s)];
    shard.honest_participants = share(base.honest_participants, s_count, s);
    shard.sybil_identities = share(base.sybil_identities, s_count, s);

    core::RealizedPlan& plan = shard.plan;
    plan.counts.assign(base.plan.counts.size(), 0);
    plan.task_count = 0;
    plan.work_assignments = 0;
    for (std::size_t i = 0; i < base.plan.counts.size(); ++i) {
      const std::int64_t cut = share(base.plan.counts[i], s_count, s);
      plan.counts[i] = cut;
      plan.task_count += cut;
      plan.work_assignments += static_cast<std::int64_t>(i + 1) * cut;
    }
    plan.tail_tasks = share(base.plan.tail_tasks, s_count, s);
    plan.tail_multiplicity = plan.tail_tasks > 0
                                 ? base.plan.tail_multiplicity
                                 : 0;
    plan.ringer_count = share(base.plan.ringer_count, s_count, s);
    plan.ringer_multiplicity = plan.ringer_count > 0
                                   ? base.plan.ringer_multiplicity
                                   : 0;
    plan.ringer_assignments = plan.ringer_count * plan.ringer_multiplicity;

    // Each shard sees its slice of the fault schedule: fleet-wide events
    // replicate to every shard, participant-targeted events go to the
    // owning shard with the identity remapped to its local index.
    shard.faults = base.faults.slice(base.honest_participants,
                                     base.sybil_identities, s_count, s);
    // Per-shard journals: each sub-campaign is its own crash-recovery
    // domain, so each writes (and resumes) its own file.
    if (!base.journal.path.empty()) {
      shard.journal.path = base.journal.path + ".shard" + std::to_string(s);
    }
    configs_.push_back(std::move(shard));
  }

#if REDUND_ENABLE_INVARIANTS
  // Partition conservation: the shard slices must add back to the base
  // campaign exactly — tasks, assignments (Σ i·x_i), ringers, and fleet.
  std::int64_t sum_tasks = 0;
  std::int64_t sum_work = 0;
  std::int64_t sum_ringers = 0;
  std::int64_t sum_honest = 0;
  for (const RuntimeConfig& shard : configs_) {
    sum_tasks += shard.plan.task_count;
    sum_work += shard.plan.work_assignments;
    sum_ringers += shard.plan.ringer_count;
    sum_honest += shard.honest_participants;
  }
  REDUND_INVARIANT(sum_tasks == base.plan.task_count,
                   "shard task counts partition the base plan");
  REDUND_INVARIANT(sum_work == base.plan.work_assignments,
                   "shard assignment totals (sum i*x_i) partition the base "
                   "plan");
  REDUND_INVARIANT(sum_ringers == base.plan.ringer_count,
                   "shard ringer counts partition the base plan");
  REDUND_INVARIANT(sum_honest == base.honest_participants,
                   "shard fleets partition the base fleet");
#endif
}

RuntimeReport ShardedSupervisor::run(parallel::ThreadPool& pool) const {
  std::vector<RuntimeReport> reports(configs_.size());
  // Slot-per-shard writes: scheduling order cannot shuffle results.
  parallel::parallel_for(pool, configs_.size(), [&](std::size_t s) {
    reports[s] = run_async_campaign(configs_[s]);
  });
  return merge(reports);
}

RuntimeReport ShardedSupervisor::resume(parallel::ThreadPool& pool) const {
  if (configs_.empty() || configs_[0].journal.path.empty()) {
    throw std::invalid_argument(
        "ShardedSupervisor::resume: journaling must be configured "
        "(journal.path empty)");
  }
  std::vector<RuntimeReport> reports(configs_.size());
  parallel::parallel_for(pool, configs_.size(), [&](std::size_t s) {
    reports[s] = resume_shard_(s);
  });
  return merge(reports);
}

RuntimeReport ShardedSupervisor::resume_shard_(std::size_t s) const {
  const RuntimeConfig& config = configs_[s];
  try {
    return resume_async_campaign(config);
  } catch (const std::runtime_error&) {
    // Own journal missing or unusable. Resume re-runs the shard from its
    // seed anyway, so a plain run yields the same bytes; only the
    // verification against the lost journal is forgone.
  }
  return run_async_campaign(config);
}

RuntimeReport ShardedSupervisor::merge(
    const std::vector<RuntimeReport>& reports) {
  RuntimeReport merged;
  double detection_weighted_latency = 0.0;
  double p_mean_weighted = 0.0;
  double p_upper_weighted = 0.0;
  std::int64_t p_hat_weight = 0;
  for (const RuntimeReport& r : reports) {
    // Per-shard counter consistency before folding: a report whose own
    // counters do not balance would poison every merged total. (Partial
    // fixture reports with tasks == 0 are exempt from the balance check.)
    REDUND_INVARIANT(r.tasks == 0 ||
                         r.tasks_valid + r.tasks_unfinished <= r.tasks,
                     "shard report: valid + unfinished tasks within total");
    REDUND_INVARIANT(
        r.final_correct_tasks + r.final_corrupt_tasks == r.tasks_valid,
        "shard report: validated tasks split into correct + corrupt");
    // The by-hand folds. Posterior summaries merge as observation-weighted
    // means: each shard's controller saw only its own outcomes, so this is
    // the natural fleet-level pooling. The first detection is the earliest
    // among shards that detected anything; latency is detection-weighted.
    // (Deterministic: ascending shard order.)
    if (r.control_observations > 0) {
      p_mean_weighted +=
          r.p_hat_mean * static_cast<double>(r.control_observations);
      p_upper_weighted +=
          r.p_hat_upper * static_cast<double>(r.control_observations);
      p_hat_weight += r.control_observations;
    }
    if (r.detections > 0) {
      merged.first_detection_time =
          merged.detections == 0
              ? r.first_detection_time
              : std::min(merged.first_detection_time, r.first_detection_time);
      detection_weighted_latency +=
          r.mean_detection_latency * static_cast<double>(r.detections);
    }
    for_each_field(
        [](const FieldInfo& info, auto& into, const auto& from) {
          if (info.merge == Merge::kMax) {
            into = std::max(into, from);
          } else if constexpr (std::is_arithmetic_v<
                                   std::remove_cvref_t<decltype(into)>>) {
            if (info.merge == Merge::kSum) into += from;
          }
        },
        merged, r);
  }
  if (merged.detections > 0) {
    merged.mean_detection_latency =
        detection_weighted_latency / static_cast<double>(merged.detections);
  }
  if (p_hat_weight > 0) {
    merged.p_hat_mean = p_mean_weighted / static_cast<double>(p_hat_weight);
    merged.p_hat_upper = p_upper_weighted / static_cast<double>(p_hat_weight);
  }

  // Series merge: the union of all shard sample times, ascending; at each
  // time, sum every shard's counters as of that time (carry the last row
  // forward once a shard's campaign has ended — its cumulative counters
  // stay at their final values).
  std::vector<std::size_t> cursor(reports.size(), 0);
  for (;;) {
    double next_time = 0.0;
    bool have_next = false;
    for (std::size_t s = 0; s < reports.size(); ++s) {
      if (cursor[s] >= reports[s].series.size()) continue;
      const double t = reports[s].series[cursor[s]].time;
      if (!have_next || t < next_time) {
        next_time = t;
        have_next = true;
      }
    }
    if (!have_next) break;
    RuntimeSample row;
    row.time = next_time;
    for (std::size_t s = 0; s < reports.size(); ++s) {
      const auto& series = reports[s].series;
      while (cursor[s] < series.size() &&
             series[cursor[s]].time <= next_time) {
        ++cursor[s];
      }
      if (cursor[s] == 0) continue;  // Shard not yet sampled: all zeros.
      for_each_counter([](const char*, std::int64_t& into,
                          std::int64_t from) { into += from; },
                       row, series[cursor[s] - 1]);
    }
    merged.series.push_back(row);
  }
  return merged;
}

RuntimeReport run_sharded_campaign(const RuntimeConfig& base,
                                   std::int64_t shards,
                                   parallel::ThreadPool& pool) {
  // Each shard's event loop owns a calendar ring, unit/task tables, and a
  // participant pool that together dwarf L2 — spreading workers one per
  // available CPU keeps each shard's working set resident on its core
  // instead of migrating with the scheduler. Placement hint only: the
  // merged report is bit-identical pinned or not, and on a single-CPU
  // host pin_workers() is a no-op.
  pool.pin_workers();
  const ShardedSupervisor sharded(base, shards);
  return sharded.run(pool);
}

RuntimeReport resume_sharded_campaign(const RuntimeConfig& base,
                                      std::int64_t shards,
                                      parallel::ThreadPool& pool) {
  pool.pin_workers();
  const ShardedSupervisor sharded(base, shards);
  return sharded.resume(pool);
}

}  // namespace redund::runtime
