// Isolated layer probes for the traced run. Each times one layer at a
// workload's sizes through the layer's public entry points, so a change
// to that layer shows here even when the end-to-end op hides it. Every
// probe also checks that what it timed computed the right thing.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "configs.hpp"
#include "control/replanner.hpp"
#include "core/detection.hpp"
#include "e2e.hpp"
#include "parallel/thread_pool.hpp"
#include "platform/registry.hpp"
#include "platform/scheduler.hpp"
#include "rng/bulk.hpp"
#include "rng/distributions.hpp"
#include "runtime/audit.hpp"
#include "runtime/event_queue.hpp"
#include "runtime/journal.hpp"
#include "runtime/quorum.hpp"
#include "runtime/sharded.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace redund::e2e {

namespace {

namespace fs = std::filesystem;

/// Keeps a computed value observable so the timed loop is not elided.
volatile std::uint64_t g_sink = 0;

class Probe {
 public:
  Probe(Tracer& tracer, LayerReport& report) : tracer_(tracer), report_(report) {}

  /// Runs fn() inside a span named `name`; returns its wall time.
  template <typename Fn>
  double time(const char* name, Fn&& fn) {
    const Span span(&tracer_, name, -1);
    const Clock::time_point start = Clock::now();
    fn();
    return seconds_between(start, Clock::now());
  }

  void metric(std::string name, double value, const char* unit) {
    report_.metrics.push_back({std::move(name), value, unit});
  }

  void check(bool ok, const std::string& what) {
    if (!ok) report_.failures.push_back("layer " + what);
  }

 private:
  Tracer& tracer_;
  LayerReport& report_;
};

// ------------------------------------------------------ runtime.supervisor

struct SupervisorOut {
  runtime::RuntimeReport report;
  double run_s = 0.0;
};

SupervisorOut supervisor_layer(Probe& d, std::int64_t scale,
                               std::uint64_t seed) {
  constexpr int kRepeats = 3;
  const Fleet fleet = headline_fleet(scale);
  const runtime::RuntimeConfig config =
      campaign_config(balanced_plan(fleet.tasks), fleet, seed);
  SupervisorOut out;
  std::vector<double> times;
  std::uint64_t first = 0;
  for (int r = 0; r < kRepeats; ++r) {
    times.push_back(d.time("supervisor.run_async_campaign", [&] {
      out.report = runtime::run_async_campaign(config);
    }));
    const std::uint64_t fp = runtime::report_fingerprint(out.report);
    d.check(r == 0 || fp == first, "supervisor: repeated runs disagree");
    first = fp;
  }
  const runtime::RuntimeReport& rep = out.report;
  out.run_s = median(times);
  const auto issued = static_cast<double>(rep.units_issued);
  d.metric("supervisor.run_s", out.run_s, "s");
  d.metric("supervisor.events_per_s",
           static_cast<double>(rep.events_processed) / out.run_s, "1/s");
  d.metric("supervisor.events", static_cast<double>(rep.events_processed),
           "count");
  d.metric("supervisor.useful_ratio",
           static_cast<double>(rep.units_completed) / issued, "ratio");
  d.metric("supervisor.reissue_ratio",
           static_cast<double>(rep.units_reissued) / issued, "ratio");
  return out;
}

// ----------------------------------------------------- runtime.event_queue

/// The classic hold model: n pending events; each hold pops the minimum
/// and schedules one event an increment later. Returns ns per hold and a
/// hash of the pop sequence; fails the check on any out-of-order pop.
template <typename Queue>
double hold(Probe& d, const char* name, std::size_t n,
            const std::vector<double>& increments, std::uint64_t& pop_hash) {
  Queue queue;
  queue.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queue.schedule(increments[i], runtime::EventKind::kCompletion,
                   static_cast<std::int64_t>(i));
  }
  const std::size_t holds = increments.size() - n;
  bool ordered = true;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  runtime::Event last{};
  const double s = d.time(name, [&] {
    for (std::size_t h = 0; h < holds; ++h) {
      const runtime::Event event = queue.pop();
      ordered &= h == 0 || !runtime::fires_before(event, last);
      last = event;
      hash = (hash ^ event.seq) * 0x100000001b3ULL;
      queue.schedule(event.time + increments[n + h],
                     runtime::EventKind::kCompletion, event.subject);
    }
  });
  d.check(ordered, std::string(name) + ": pops left (time, seq) order");
  pop_hash = hash;
  return 1e9 * s / static_cast<double>(holds);
}

void queue_layer(Probe& d, std::int64_t units, std::int64_t participants,
                 std::uint64_t seed) {
  const auto n = static_cast<std::size_t>(units);
  const std::size_t total = n + 4 * n;
  // Near: lognormal service increments. Far: one in ten is instead a
  // deadline plus a backoff step, the timers that widen the calendar span
  // under churn (auto deadline: 4 mean services per queued unit).
  const double deadline = 4.0 * static_cast<double>(units) /
                          static_cast<double>(participants);
  std::vector<double> near(total);
  std::vector<double> far(total);
  rng::Xoshiro256StarStar engine = rng::make_stream(seed, 0xE2E0);
  for (std::size_t i = 0; i < total; ++i) {
    near[i] = rng::lognormal_unit_median(0.5, engine);
    far[i] = rng::bernoulli(0.1, engine)
                 ? deadline + 0.5 * static_cast<double>(
                                        1ULL << rng::uniform_below(3, engine))
                 : near[i];
  }
  for (const auto& [label, increments] :
       {std::pair<const char*, const std::vector<double>*>{"near", &near},
        {"far", &far}}) {
    std::uint64_t calendar_hash = 0;
    std::uint64_t heap_hash = 0;
    const std::string cal = std::string("queue.calendar_hold_ns.") + label;
    const std::string heap = std::string("queue.heap_hold_ns.") + label;
    d.metric(cal, hold<runtime::CalendarQueue>(d, cal.c_str(), n, *increments,
                                               calendar_hash),
             "ns");
    d.metric(heap, hold<runtime::EventQueue>(d, heap.c_str(), n, *increments,
                                             heap_hash),
             "ns");
    d.check(calendar_hash == heap_hash,
            std::string("queue ") + label + ": calendar and heap pop orders differ");
  }
}

// ---------------------------------------------------------------- platform

void scheduler_layer(Probe& d, const core::RealizedPlan& plan,
                     const Fleet& fleet, std::int64_t blacklisted,
                     std::uint64_t seed) {
  constexpr std::size_t kCalls = 20'000;
  platform::Registry registry;
  for (std::int64_t i = 0; i < fleet.honest; ++i) {
    (void)registry.enroll(platform::Principal::kHonest);
  }
  const platform::ParticipantId first_sybil = registry.enroll_sybils(fleet.sybils);
  // Caught sybils first, as the reactive path catches them.
  for (std::int64_t i = 0; i < blacklisted && i < registry.size(); ++i) {
    registry.blacklist(static_cast<platform::ParticipantId>(
        i < fleet.sybils ? first_sybil + static_cast<std::uint64_t>(i)
                         : static_cast<std::uint64_t>(i - fleet.sybils)));
  }
  platform::Scheduler scheduler(plan);
  rng::Xoshiro256StarStar engine = rng::make_stream(seed, 0xE2E1);
  scheduler.deal(registry, engine);
  std::vector<std::size_t> units(kCalls);
  for (std::size_t& u : units) {
    u = rng::uniform_below(static_cast<std::uint64_t>(scheduler.unit_count()),
                           engine);
  }
  std::size_t moved = 0;
  const double s = d.time("scheduler.try_reassign_unit", [&] {
    for (const std::size_t u : units) {
      moved += scheduler.try_reassign_unit(u, registry, engine).has_value();
    }
  });
  d.check(moved > kCalls / 2, "scheduler: most reassignments found no identity");
  d.metric("scheduler.reassign_ns", 1e9 * s / static_cast<double>(kCalls), "ns");
}

// --------------------------------------------------------------------- rng

void rng_layer(Probe& d, std::int64_t units, std::uint64_t seed) {
  constexpr int kRounds = 20;
  constexpr double kP = 0.02;
  const auto n = static_cast<std::size_t>(units);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = 4 * i + 1;  // (unit, attempt)
  std::vector<std::uint64_t> scratch(n);
  std::vector<std::uint8_t> bulk(n);
  std::vector<std::uint8_t> scalar(n);
  const double bulk_s = d.time("rng.bulk_first_bernoulli", [&] {
    for (int r = 0; r < kRounds; ++r) {
      rng::bulk_first_bernoulli(kP, seed + static_cast<std::uint64_t>(r),
                                keys.data(), n, scratch.data(), bulk.data());
      g_sink = g_sink + bulk[static_cast<std::size_t>(r) % n];
    }
  });
  const double scalar_s = d.time("rng.first_bernoulli", [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t i = 0; i < n; ++i) {
        scalar[i] = rng::first_bernoulli(
                        kP, seed + static_cast<std::uint64_t>(r), keys[i])
                        ? 1
                        : 0;
      }
      g_sink = g_sink + scalar[static_cast<std::size_t>(r) % n];
    }
  });
  d.check(bulk == scalar, "rng: bulk and scalar Bernoulli waves differ");
  const double draws = static_cast<double>(kRounds) * static_cast<double>(n);
  d.metric("rng.bulk_bernoulli_ns", 1e9 * bulk_s / draws, "ns");
  d.metric("rng.first_bernoulli_ns", 1e9 * scalar_s / draws, "ns");
}

// ---------------------------------------------------------- runtime.quorum

void quorum_layer(Probe& d, const core::RealizedPlan& plan,
                  std::uint64_t seed) {
  constexpr int kRounds = 10;
  // One vote word per task of the plan's multiplicity mix; one copy in
  // ten disagrees.
  std::vector<std::uint64_t> values;
  std::vector<std::uint32_t> offsets;
  std::vector<int> lanes;
  std::vector<std::uint64_t> present;
  rng::Xoshiro256StarStar engine = rng::make_stream(seed, 0xE2E2);
  const auto add_tasks = [&](std::int64_t count, std::int64_t multiplicity) {
    const int m = static_cast<int>(std::min<std::int64_t>(
        multiplicity, runtime::kMaxPackedQuorum));
    for (std::int64_t t = 0; t < count; ++t) {
      offsets.push_back(static_cast<std::uint32_t>(values.size()));
      lanes.push_back(m);
      present.push_back(m == 64 ? ~0ULL : (1ULL << m) - 1);
      for (int i = 0; i < m; ++i) {
        values.push_back(rng::bernoulli(0.1, engine) ? engine() : 7);
      }
    }
  };
  for (std::size_t k = 0; k < plan.counts.size(); ++k) {
    add_tasks(plan.counts[k], static_cast<std::int64_t>(k + 1));
  }
  add_tasks(plan.ringer_count, plan.ringer_multiplicity);
  const std::size_t tasks = offsets.size();
  std::uint64_t equal = 0;
  std::uint64_t winners = 0;
  const double equal_s = d.time("quorum.all_equal_packed", [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t t = 0; t < tasks; ++t) {
        equal += runtime::all_equal_packed(values.data() + offsets[t],
                                           present[t], lanes[t]);
      }
    }
  });
  const double tally_s = d.time("quorum.tally_packed", [&] {
    for (int r = 0; r < kRounds; ++r) {
      for (std::size_t t = 0; t < tasks; ++t) {
        const runtime::QuorumTally tally = runtime::tally_packed(
            values.data() + offsets[t], present[t], lanes[t]);
        winners += tally.best_count == lanes[t];
      }
    }
  });
  // A unanimous vote word is exactly one whose plurality takes every lane.
  d.check(equal == winners, "quorum: all_equal and tally verdicts disagree");
  g_sink = g_sink + equal;
  const double calls = static_cast<double>(kRounds) * static_cast<double>(tasks);
  d.metric("quorum.all_equal_ns", 1e9 * equal_s / calls, "ns");
  d.metric("quorum.tally_ns", 1e9 * tally_s / calls, "ns");
}

// ----------------------------------------------------------------- control

void control_layer(Probe& d, std::int64_t scale, const std::string& data_dir,
                   const core::RealizedPlan& plan, std::uint64_t seed) {
  constexpr int kCalls = 20;
  const Fleet fleet = headline_fleet(scale);
  runtime::RuntimeConfig config = campaign_config(plan, fleet, seed);
  make_churn(config, runtime::FaultSchedule::load(churn_faults_path(data_dir)));
  runtime::RuntimeReport report;
  (void)d.time("control.churn_campaign",
               [&] { report = runtime::run_async_campaign(config); });
  d.metric("control.replan_rounds", static_cast<double>(report.replan_rounds),
           "count");
  d.metric("control.boosts", static_cast<double>(report.control_boosts),
           "count");
  // One re-plan round over the whole plan as the residual mix, at a
  // posterior upper limit that forces promotions.
  std::vector<control::ResidualClass> classes;
  for (std::size_t k = 0; k < plan.counts.size(); ++k) {
    if (plan.counts[k] == 0) continue;
    classes.push_back({static_cast<std::int64_t>(k + 1), plan.counts[k],
                       plan.counts[k], 0});
  }
  control::ReplanBudgets budgets;
  budgets.top_verified = plan.ringer_count > 0;
  std::int64_t promoted = 0;
  const double s = d.time("control.plan_remaining", [&] {
    for (int i = 0; i < kCalls; ++i) {
      promoted += control::plan_remaining(classes, 0.05, budgets).promoted();
    }
  });
  d.check(promoted > 0, "control: plan_remaining promoted nothing at p=0.05");
  d.metric("control.plan_remaining_us", 1e6 * s / kCalls, "us");
}

// ---------------------------------------------- runtime.checkpoint/journal

void journal_layer(Probe& d, std::int64_t scale, const std::string& scratch,
                   const core::RealizedPlan& plan, double unjournaled_s,
                   std::uint64_t seed) {
  const Fleet fleet = headline_fleet(scale);
  runtime::RuntimeConfig config = campaign_config(plan, fleet, seed);
  const std::string full_path = scratch + "/layer-journal-full.log";
  const std::string kill_path = scratch + "/layer-journal-kill.log";
  fs::remove(full_path);
  fs::remove(kill_path);

  make_journaled(config, full_path);
  runtime::RuntimeReport full;
  const double run_s = d.time("journal.run_async_campaign", [&] {
    full = runtime::run_async_campaign(config);
  });
  d.metric("journal.overhead_s", run_s - unjournaled_s, "s");
  // Bytes per event by record letter: E (WAL), C (full), D (delta).
  std::ifstream in(full_path, std::ios::binary);
  double bytes[3] = {0.0, 0.0, 0.0};
  for (std::string line; std::getline(in, line);) {
    const double size = static_cast<double>(line.size() + 1);
    if (line.rfind("C ", 0) == 0) bytes[0] += size;
    if (line.rfind("D ", 0) == 0) bytes[1] += size;
    if (line.rfind("E ", 0) == 0) bytes[2] += size;
  }
  const auto events = static_cast<double>(full.events_processed);
  d.metric("journal.bytes_per_event.C", bytes[0] / events, "B");
  d.metric("journal.bytes_per_event.D", bytes[1] / events, "B");
  d.metric("journal.bytes_per_event.E", bytes[2] / events, "B");

  make_journaled(config, kill_path);
  d.metric("journal.capped_s", d.time("journal.run_async_campaign_capped", [&] {
             d.check(!runtime::run_async_campaign_capped(
                          config, full.events_processed / 2)
                          .has_value(),
                     "journal: capped run finished before its kill point");
           }),
           "s");
  runtime::JournalContents contents;
  const double read_s = d.time("journal.read_journal", [&] {
    contents = runtime::read_journal(kill_path);
  });
  d.check(contents.has_checkpoint || !contents.tail.empty(),
          "journal: killed run left no records");
  runtime::RuntimeReport resumed;
  const double resume_s = d.time("journal.resume_async_campaign", [&] {
    resumed = runtime::resume_async_campaign(config);
  });
  d.check(runtime::report_fingerprint(resumed) ==
              runtime::report_fingerprint(full),
          "journal: resume differs from the uninterrupted run");
  d.metric("journal.read_s", read_s, "s");
  d.metric("journal.replay_s", resume_s - read_s, "s");
  fs::remove(full_path);
  fs::remove(kill_path);
}

// ------------------------------------------------ runtime.sharded, parallel

void sharded_layer(Probe& d, std::int64_t scale, parallel::ThreadPool& pool,
                   std::uint64_t seed) {
  constexpr int kMerges = 100;
  const Fleet fleet = sharded_fleet(scale);
  const runtime::RuntimeConfig base =
      campaign_config(balanced_plan(fleet.tasks), fleet, seed);

  // One thread: the shards back to back on the calling thread, which is
  // exactly what ShardedSupervisor::run does with no helpers.
  std::unique_ptr<runtime::ShardedSupervisor> sharded;
  const double construct_s = d.time("sharded.construct", [&] {
    sharded = std::make_unique<runtime::ShardedSupervisor>(base, kShards);
  });
  std::vector<runtime::RuntimeReport> reports;
  std::vector<double> shard_s;
  for (const runtime::RuntimeConfig& shard : sharded->shard_configs()) {
    shard_s.push_back(d.time("sharded.shard_run_async_campaign", [&] {
      reports.push_back(runtime::run_async_campaign(shard));
    }));
  }
  runtime::RuntimeReport serial;
  const double merge_s = d.time("sharded.merge", [&] {
    for (int i = 0; i < kMerges; ++i) {
      serial = runtime::ShardedSupervisor::merge(reports);
    }
  });
  double serial_s = construct_s + merge_s / kMerges;
  double shard_max = 0.0;
  for (const double s : shard_s) {
    serial_s += s;
    shard_max = std::max(shard_max, s);
  }

  runtime::RuntimeReport parallel_report;
  const double run_s = d.time("sharded.run_sharded_campaign", [&] {
    parallel_report = runtime::run_sharded_campaign(base, kShards, pool);
  });
  d.check(runtime::report_fingerprint(parallel_report) ==
              runtime::report_fingerprint(serial),
          "sharded: pool and one-thread reports differ");
  d.metric("sharded.construct_s", construct_s, "s");
  d.metric("sharded.run_s", run_s, "s");
  d.metric("sharded.merge_us", 1e6 * merge_s / kMerges, "us");
  d.metric("sharded.imbalance",
           shard_max * static_cast<double>(shard_s.size()) /
               (serial_s - construct_s - merge_s / kMerges),
           "ratio");
  d.metric("parallel.shard_speedup", serial_s / run_s, "ratio");
}

// ---------------------------------------------------- core, lp, sim, parallel

bool same_result(const sim::ReplicaResult& a, const sim::ReplicaResult& b) {
  return a.replicas == b.replicas &&
         a.adversary_assignments == b.adversary_assignments &&
         a.tasks_held == b.tasks_held && a.cheat_attempts == b.cheat_attempts &&
         a.detected_cheats == b.detected_cheats &&
         a.successful_cheats == b.successful_cheats &&
         a.fully_controlled_tasks == b.fully_controlled_tasks &&
         a.replicas_with_detection == b.replicas_with_detection &&
         a.replicas_with_corruption == b.replicas_with_corruption &&
         a.attempts_by_held == b.attempts_by_held &&
         a.detected_by_held == b.detected_by_held;
}

void planning_layer(Probe& d, std::int64_t scale, parallel::ThreadPool& pool,
                    std::uint64_t seed) {
  constexpr int kDetectionChecks = 100;
  const sim::AdversaryConfig adversary = verify_adversary();
  const sim::MonteCarloConfig mc = verify_monte_carlo(scale, seed);
  double pool_total = 0.0;
  double serial_total = 0.0;
  for (const VerifyScheme& entry : kVerifySchemes) {
    const std::string name = entry.name;
    core::Plan plan;
    d.metric("core.make_plan_s." + name, d.time("core.make_plan", [&] {
               plan = core::make_plan(verify_request(entry.scheme, scale));
             }),
             "s");
    const sim::Workload workload(plan.realized);
    sim::ReplicaResult pooled;
    const double pool_s = d.time("sim.run_monte_carlo", [&] {
      pooled = sim::run_monte_carlo(pool, workload, adversary, mc);
    });
    // One thread: the replica loop run_monte_carlo distributes, on the
    // calling thread alone.
    sim::ReplicaResult serial;
    sim::ReplicaScratch scratch;
    const double serial_s = d.time("sim.run_replica_into", [&] {
      for (std::int64_t r = 0; r < mc.replicas; ++r) {
        rng::Xoshiro256StarStar engine =
            rng::make_stream(mc.master_seed, static_cast<std::uint64_t>(r));
        sim::run_replica_into(serial, workload, adversary, engine,
                              sim::Allocation::kClassAggregated, scratch);
      }
    });
    d.check(same_result(pooled, serial),
            "monte carlo " + name + ": pool and one-thread results differ");
    d.metric("sim.monte_carlo_s." + name, pool_s, "s");
    d.metric("sim.replica_ns." + name,
             1e9 * serial_s / static_cast<double>(mc.replicas), "ns");
    pool_total += pool_s;
    serial_total += serial_s;
    if (entry.scheme == core::Scheme::kBalanced) {
      const core::Distribution deployed =
          plan.realized.as_distribution(plan.realized.ringer_count > 0);
      double sum = 0.0;
      const double s = d.time("core.detection_probability", [&] {
        for (int i = 0; i < kDetectionChecks; ++i) {
          for (std::int64_t k = 1; k <= deployed.dimension(); ++k) {
            sum += core::detection_probability(deployed, k, adversary.proportion);
          }
        }
      });
      g_sink = g_sink + static_cast<std::uint64_t>(sum);
      d.metric("core.detection_check_us", 1e6 * s / kDetectionChecks, "us");
    }
  }
  d.metric("parallel.mc_speedup", serial_total / pool_total, "ratio");
}

// ---------------------------------------------------------- runtime.report

void report_layer(Probe& d, const runtime::RuntimeReport& report) {
  constexpr int kCalls = 1'000;
  std::uint64_t acc = 0;
  const double s = d.time("runtime.report_fingerprint", [&] {
    for (int i = 0; i < kCalls; ++i) acc ^= runtime::report_fingerprint(report);
  });
  g_sink = g_sink + acc;
  d.metric("report.fingerprint_us", 1e6 * s / kCalls, "us");
}

}  // namespace

LayerReport run_layer_probes(std::int64_t scale, const std::string& data_dir,
                              const std::string& scratch_dir,
                              std::uint64_t seed, Tracer& tracer) {
  LayerReport report;
  Probe d(tracer, report);
  fs::create_directories(scratch_dir);
  parallel::ThreadPool pool(pool_workers());
  const Fleet fleet = headline_fleet(scale);
  const core::RealizedPlan plan = balanced_plan(fleet.tasks);

  const SupervisorOut supervisor = supervisor_layer(d, scale, seed);
  queue_layer(d, supervisor.report.units_planned, fleet.honest + fleet.sybils,
              seed);
  scheduler_layer(d, plan, fleet, supervisor.report.blacklisted_identities,
                  seed);
  rng_layer(d, supervisor.report.units_planned, seed);
  quorum_layer(d, plan, seed);
  control_layer(d, scale, data_dir, plan, seed);
  journal_layer(d, scale, scratch_dir, plan, supervisor.run_s, seed);
  sharded_layer(d, scale, pool, seed);
  planning_layer(d, scale, pool, seed);
  report_layer(d, supervisor.report);
  return report;
}

}  // namespace redund::e2e
