// The five workloads. Each op builds its inputs from its seed alone, calls
// the library's public entry points, fingerprints what came back, and
// checks it; spans (when a tracer is given) wrap every one of those calls.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "configs.hpp"
#include "core/detection.hpp"
#include "e2e.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/audit.hpp"
#include "runtime/journal.hpp"
#include "runtime/sharded.hpp"
#include "sim/workload.hpp"

namespace redund::e2e {

namespace {

namespace fs = std::filesystem;

constexpr double kEpsilon = 0.5;
constexpr double kDetectionSigmas = 4.0;
constexpr std::int64_t kDetectionMinAttempts = 1'000;

std::int64_t scaled(std::int64_t value, std::int64_t scale) {
  return std::max<std::int64_t>(1, value / scale);
}

}  // namespace

// ------------------------------------------------------------------ configs

Fleet headline_fleet(std::int64_t scale) {
  return {scaled(50'000, scale), scaled(1'000, scale), scaled(100, scale)};
}

Fleet sharded_fleet(std::int64_t scale) {
  const Fleet one = headline_fleet(scale);
  return {kShards * one.tasks, kShards * one.honest, kShards * one.sybils};
}

core::RealizedPlan balanced_plan(std::int64_t tasks) {
  core::PlanRequest request;
  request.task_count = tasks;
  request.epsilon = kEpsilon;
  request.scheme = core::Scheme::kBalanced;
  return core::make_plan(request).realized;
}

runtime::RuntimeConfig campaign_config(core::RealizedPlan plan,
                                       const Fleet& fleet,
                                       std::uint64_t seed) {
  runtime::RuntimeConfig config;
  config.plan = std::move(plan);
  config.honest_participants = fleet.honest;
  config.sybil_identities = fleet.sybils;
  config.strategy = sim::CheatStrategy::kAlwaysCheat;
  config.latency.straggler_fraction = 0.15;
  config.latency.straggler_slowdown = 8.0;
  config.latency.dropout_probability = 0.02;
  config.latency.speed_sigma = 0.25;
  config.adaptive.enabled = true;
  config.queue = runtime::QueueKind::kCalendar;
  config.seed = seed;
  return config;
}

void make_churn(runtime::RuntimeConfig& config,
                const runtime::FaultSchedule& faults) {
  config.latency.dropout_probability = 0.10;
  config.control.enabled = true;
  config.control.epsilon = kEpsilon;
  // Review every time unit, not every half deadline (~180): by the first
  // automatic review the low-multiplicity tasks have mostly validated,
  // the residual mix already meets epsilon, and the controller never
  // boosts a copy.
  config.control.check_interval = 1.0;
  config.faults = faults;
}

void make_journaled(runtime::RuntimeConfig& config, const std::string& path) {
  config.journal.path = path;
  config.journal.checkpoint_interval = 65'536;
  config.journal.full_snapshot_every = 8;
  config.journal.wal = true;
}

std::string churn_faults_path(const std::string& data_dir) {
  return data_dir + "/workloads/churn_adaptive.faults.json";
}

core::PlanRequest verify_request(core::Scheme scheme, std::int64_t scale) {
  core::PlanRequest request;
  request.task_count = scaled(1'000'000, scale);
  request.epsilon = kEpsilon;
  request.scheme = scheme;
  request.lp_dimension = 24;
  request.minimum_multiplicity = 2;
  return request;
}

sim::AdversaryConfig verify_adversary() {
  return {.proportion = 0.1, .strategy = sim::CheatStrategy::kAlwaysCheat};
}

sim::MonteCarloConfig verify_monte_carlo(std::int64_t scale,
                                         std::uint64_t seed) {
  sim::MonteCarloConfig config;
  config.replicas = scaled(5'000, scale);
  config.master_seed = seed;
  return config;
}

std::size_t pool_workers() {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, thread_budget() - 2));
}

namespace {

/// Checks every runtime op shares: the campaign completed and validated
/// every task.
void check_completed(const runtime::RuntimeReport& report, const char* what,
                     OpResult& result) {
  if (report.outcome != runtime::CampaignOutcome::kCompleted) {
    result.failures.push_back(std::string(what) + " ended " +
                              runtime::to_string(report.outcome));
  }
  if (report.tasks_valid != report.tasks) {
    result.failures.push_back(std::string(what) + ": tasks_valid " +
                              std::to_string(report.tasks_valid) +
                              " != tasks " + std::to_string(report.tasks));
  }
}

void record_campaign(const runtime::RuntimeReport& report, OpResult& result) {
  result.redundancy_factor = static_cast<double>(report.units_issued) /
                             static_cast<double>(report.tasks);
  result.corrupt_task_rate = report.corruption_rate();
  result.makespan = report.makespan;
}

std::uint64_t fingerprint(const runtime::RuntimeReport& report, int op,
                          Tracer* tracer) {
  const Span span(tracer, "runtime.report_fingerprint", op);
  return runtime::report_fingerprint(report);
}

core::RealizedPlan traced_plan(std::int64_t tasks, int op, Tracer* tracer) {
  const Span span(tracer, "core.make_plan", op);
  return balanced_plan(tasks);
}

// ------------------------------------------------- headline, churn_adaptive

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload(std::int64_t scale, std::string faults_path)
      : fleet_(headline_fleet(scale)), faults_path_(std::move(faults_path)) {}

  void setup() override {
    if (!faults_path_.empty()) {
      faults_ = runtime::FaultSchedule::load(faults_path_);
    }
  }

  OpResult run(std::uint64_t seed, int op, Tracer* tracer) override {
    const Span op_span(tracer, "op", op);
    OpResult result;
    runtime::RuntimeConfig config =
        campaign_config(traced_plan(fleet_.tasks, op, tracer), fleet_, seed);
    const bool churn = !faults_path_.empty();
    if (churn) make_churn(config, faults_);
    runtime::RuntimeReport report;
    {
      const Span span(tracer, "runtime.run_async_campaign", op);
      report = runtime::run_async_campaign(config);
    }
    result.fingerprint = fingerprint(report, op, tracer);
    check_completed(report, "campaign", result);
    record_campaign(report, result);
    if (churn) check_churn(report, result);
    return result;
  }

 private:
  /// The schedule must bite: every fault starts before the last task
  /// validates, and the controller both re-plans and boosts.
  void check_churn(const runtime::RuntimeReport& report,
                   OpResult& result) const {
    if (report.replan_rounds <= 0 || report.control_boosts <= 0) {
      result.failures.push_back(
          "controller idle: " + std::to_string(report.replan_rounds) +
          " re-plans, " + std::to_string(report.control_boosts) + " boosts");
    }
    for (const runtime::FaultEvent& event : faults_.events) {
      if (event.time >= report.makespan) {
        result.failures.push_back(
            std::string("fault ") + runtime::fault_kind_name(event.kind) +
            " at t=" + std::to_string(event.time) +
            " starts after the makespan " + std::to_string(report.makespan));
      }
    }
  }

  Fleet fleet_;
  std::string faults_path_;
  runtime::FaultSchedule faults_;
};

// --------------------------------------------------------- journal_resume

class JournalWorkload final : public Workload {
 public:
  JournalWorkload(std::int64_t scale, std::string scratch_dir)
      : fleet_(headline_fleet(scale)), scratch_dir_(std::move(scratch_dir)) {}

  void setup() override { fs::create_directories(scratch_dir_); }

  OpResult run(std::uint64_t seed, int op, Tracer* tracer) override {
    const Span op_span(tracer, "op", op);
    OpResult result;
    runtime::RuntimeConfig config =
        campaign_config(traced_plan(fleet_.tasks, op, tracer), fleet_, seed);
    const std::string full_path = scratch_dir_ + "/journal-full.log";
    const std::string kill_path = scratch_dir_ + "/journal-kill.log";
    fs::remove(full_path);
    fs::remove(kill_path);

    make_journaled(config, full_path);
    runtime::RuntimeReport full;
    {
      const Span span(tracer, "runtime.run_async_campaign", op);
      full = runtime::run_async_campaign(config);
    }
    result.journal_bytes_per_event =
        static_cast<double>(fs::file_size(full_path)) /
        static_cast<double>(std::max<std::int64_t>(1, full.events_processed));

    // The kill: a second journal stops at half the events, then resumes.
    make_journaled(config, kill_path);
    {
      const Span span(tracer, "runtime.run_async_campaign_capped", op);
      if (runtime::run_async_campaign_capped(config, full.events_processed / 2)
              .has_value()) {
        result.failures.push_back("capped run finished before its kill point");
      }
    }
    runtime::RuntimeReport resumed;
    {
      const Span span(tracer, "runtime.resume_async_campaign", op);
      const Clock::time_point start = Clock::now();
      resumed = runtime::resume_async_campaign(config);
      result.resume_s = seconds_between(start, Clock::now());
    }
    result.fingerprint = fingerprint(full, op, tracer);
    if (fingerprint(resumed, op, tracer) != result.fingerprint) {
      result.failures.push_back("resumed report differs from uninterrupted run");
    }
    check_completed(full, "journaled campaign", result);
    record_campaign(full, result);
    {
      const Span span(tracer, "bench.remove_journals", op);
      fs::remove(full_path);
      fs::remove(kill_path);
    }
    return result;
  }

 private:
  Fleet fleet_;
  std::string scratch_dir_;
};

// ----------------------------------------------------------- sharded_fleet

class ShardedWorkload final : public Workload {
 public:
  explicit ShardedWorkload(std::int64_t scale) : fleet_(sharded_fleet(scale)) {}

  void setup() override {
    pool_ = std::make_unique<parallel::ThreadPool>(pool_workers());
  }

  OpResult run(std::uint64_t seed, int op, Tracer* tracer) override {
    const Span op_span(tracer, "op", op);
    OpResult result;
    const runtime::RuntimeConfig config =
        campaign_config(traced_plan(fleet_.tasks, op, tracer), fleet_, seed);
    runtime::RuntimeReport report;
    {
      const Span span(tracer, "runtime.run_sharded_campaign", op);
      report = runtime::run_sharded_campaign(config, kShards, *pool_);
    }
    result.fingerprint = fingerprint(report, op, tracer);
    check_completed(report, "sharded campaign", result);
    record_campaign(report, result);
    return result;
  }

 private:
  Fleet fleet_;
  std::unique_ptr<parallel::ThreadPool> pool_;
};

// ------------------------------------------------------------- plan_verify

class PlanVerifyWorkload final : public Workload {
 public:
  explicit PlanVerifyWorkload(std::int64_t scale) : scale_(scale) {}

  void setup() override {
    pool_ = std::make_unique<parallel::ThreadPool>(pool_workers());
  }

  OpResult run(std::uint64_t seed, int op, Tracer* tracer) override {
    const Span op_span(tracer, "op", op);
    OpResult result;
    runtime::StateWriter digest;
    std::int64_t attempts = 0;
    std::int64_t detected = 0;
    std::int64_t corrupt = 0;
    double task_replicas = 0.0;
    for (const VerifyScheme& entry : kVerifySchemes) {
      core::Plan plan;
      {
        const Span span(tracer, "core.make_plan", op);
        plan = core::make_plan(verify_request(entry.scheme, scale_));
      }
      std::unique_ptr<sim::Workload> workload;
      {
        const Span span(tracer, "sim.Workload", op);
        workload = std::make_unique<sim::Workload>(plan.realized);
      }
      sim::ReplicaResult mc;
      {
        const Span span(tracer, "sim.run_monte_carlo", op);
        mc = sim::run_monte_carlo(*pool_, *workload, verify_adversary(),
                                  verify_monte_carlo(scale_, seed));
      }
      {
        const Span span(tracer, "bench.check_detection", op);
        check_detection(entry.name, plan.realized, mc, result);
      }
      result.redundancy_factor += plan.realized.redundancy_factor();
      attempts += mc.cheat_attempts;
      detected += mc.detected_cheats;
      corrupt += mc.successful_cheats;
      task_replicas += static_cast<double>(mc.replicas) *
                       static_cast<double>(plan.realized.task_count);
      append_digest(digest, plan.realized, mc);
    }
    result.redundancy_factor /= static_cast<double>(std::size(kVerifySchemes));
    result.detection_rate =
        static_cast<double>(detected) / static_cast<double>(attempts);
    result.corrupt_task_rate = static_cast<double>(corrupt) / task_replicas;
    result.fingerprint = runtime::fnv1a_hash(digest.text());
    return result;
  }

 private:
  /// Empirical P_{k,p} against the closed form of the deployed plan
  /// (ringers included), at every k with enough attempts to judge.
  static void check_detection(const char* scheme,
                              const core::RealizedPlan& realized,
                              const sim::ReplicaResult& mc, OpResult& result) {
    const core::Distribution deployed =
        realized.as_distribution(realized.ringer_count > 0);
    const double p = verify_adversary().proportion;
    for (std::size_t k = 1; k < mc.attempts_by_held.size(); ++k) {
      const std::int64_t n = mc.attempts_by_held[k];
      if (n < kDetectionMinAttempts) continue;
      const auto held = static_cast<std::int64_t>(k);
      const double expected = core::detection_probability(deployed, held, p);
      const double se =
          std::sqrt(expected * (1.0 - expected) / static_cast<double>(n));
      const double observed = mc.detection_rate_at(held);
      if (std::abs(observed - expected) > kDetectionSigmas * se) {
        result.failures.push_back(
            std::string(scheme) + ": detection at k=" + std::to_string(k) +
            " is " + std::to_string(observed) + ", closed form " +
            std::to_string(expected) + " (" + std::to_string(n) +
            " attempts)");
      }
    }
  }

  static void append_digest(runtime::StateWriter& digest,
                            const core::RealizedPlan& realized,
                            const sim::ReplicaResult& mc) {
    digest.u64(realized.counts.size());
    for (const std::int64_t count : realized.counts) digest.i64(count);
    digest.i64(realized.ringer_count);
    digest.i64(realized.ringer_multiplicity);
    digest.i64(mc.replicas);
    digest.i64(mc.adversary_assignments);
    digest.i64(mc.tasks_held);
    digest.i64(mc.cheat_attempts);
    digest.i64(mc.detected_cheats);
    digest.i64(mc.successful_cheats);
    digest.i64(mc.fully_controlled_tasks);
    digest.i64(mc.replicas_with_detection);
    digest.i64(mc.replicas_with_corruption);
    for (const std::int64_t v : mc.attempts_by_held) digest.i64(v);
    for (const std::int64_t v : mc.detected_by_held) digest.i64(v);
  }

  std::int64_t scale_;
  std::unique_ptr<parallel::ThreadPool> pool_;
};

}  // namespace

const std::vector<WorkloadInfo>& workload_infos() {
  static const std::vector<WorkloadInfo> infos = {
      {"headline", 0.09, true},
      {"churn_adaptive", 0.24, true},
      {"journal_resume", 0.50, true},
      {"sharded_fleet", 0.27, true},
      {"plan_verify", 0.33, false},
  };
  return infos;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::int64_t scale,
                                        const std::string& data_dir,
                                        const std::string& scratch_dir) {
  if (name == "headline") {
    return std::make_unique<CampaignWorkload>(scale, std::string());
  }
  if (name == "churn_adaptive") {
    return std::make_unique<CampaignWorkload>(scale,
                                              churn_faults_path(data_dir));
  }
  if (name == "journal_resume") {
    return std::make_unique<JournalWorkload>(scale, scratch_dir);
  }
  if (name == "sharded_fleet") return std::make_unique<ShardedWorkload>(scale);
  if (name == "plan_verify") return std::make_unique<PlanVerifyWorkload>(scale);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace redund::e2e
