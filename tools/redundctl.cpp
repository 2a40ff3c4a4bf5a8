// redundctl — command-line front-end to the redundancy library.
//
//   redundctl plan     --tasks N --epsilon E [--scheme NAME] [--min-mult M]
//                      [--lp-dim D] [--no-ringers] [--out FILE]
//   redundctl analyze  --plan FILE --epsilon E
//   redundctl simulate --plan FILE --adversary P [--replicas R] [--seed S]
//                      [--strategy NAME] [--threads T]
//   redundctl run-async [--plan FILE | --tasks N --epsilon E [--scheme NAME]]
//                      [--participants P] [--sybils K] [--strategy NAME]
//                      [--stragglers F] [--slowdown X] [--dropout D]
//                      [--deadline T] [--retries R] [--benign-rate B]
//                      [--sample-interval T] [--no-adaptive] [--no-reactive]
//                      [--adaptive [--replan-interval N]]
//                      [--seed S] [--queue heap|calendar]
//                      [--fault-plan FILE] [--max-sim-time T]
//                      [--recompute-budget N]
//                      [--journal FILE [--checkpoint-interval N]
//                       [--full-snapshot-every N] [--no-wal] [--resume]]
//                      [--shards S [--threads T]]
//   redundctl budget   --tasks N --budget B [--adversary P]
//   redundctl help
//
// plan      builds and realizes a distribution and (optionally) writes the
//           portable plan file consumed by the other subcommands.
// analyze   loads a plan file and reports its detection profile/validity.
// simulate  runs the Monte Carlo adversary simulation against a plan file.
// run-async executes a campaign on the asynchronous supervisor runtime
//           (event-driven: stragglers, dropouts, deadlines, retries, quorum
//           validation, adaptive replication) and prints a RuntimeReport.
//           --fault-plan injects a redund-faults-v1 chaos schedule;
//           --journal multi-level-checkpoints the run (crash safety;
//           --full-snapshot-every sets the L1-delta-to-L2-full cadence)
//           and --resume restores/replays it after a kill — with
//           --shards, the fleet survives losing one shard's journal
//           via partner (L3) copies.
// budget    answers "what level can I afford", including a robustness margin
//           against an adversary share p (inverts Prop. 3).
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/constraints.hpp"
#include "core/detection.hpp"
#include "core/plan_io.hpp"
#include "core/planner.hpp"
#include "core/schemes/balanced.hpp"
#include "parallel/thread_pool.hpp"
#include "report/table.hpp"
#include "runtime/audit.hpp"
#include "runtime/sharded.hpp"
#include "runtime/supervisor.hpp"
#include "sim/monte_carlo.hpp"

namespace core = redund::core;
namespace sim = redund::sim;
namespace rep = redund::report;

namespace {

/// Minimal --key value argument parser; flags take "true".
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0) {
        throw std::invalid_argument("expected --option, got '" + key + "'");
      }
      key.erase(0, 2);
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = "true";
      }
    }
  }

  [[nodiscard]] std::optional<std::string> get(const std::string& key) const {
    const auto it = values_.find(key);
    return it == values_.end() ? std::nullopt
                               : std::optional<std::string>(it->second);
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto value = get(key);
    if (!value) throw std::invalid_argument("missing required --" + key);
    return *value;
  }
  [[nodiscard]] double number(const std::string& key) const {
    return parse<double>(key, require(key));
  }
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto value = get(key);
    return value ? parse<double>(key, *value) : fallback;
  }
  [[nodiscard]] std::int64_t integer(const std::string& key) const {
    return parse<std::int64_t>(key, require(key));
  }
  [[nodiscard]] std::int64_t integer(const std::string& key,
                                     std::int64_t fallback) const {
    const auto value = get(key);
    return value ? parse<std::int64_t>(key, *value) : fallback;
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return get(key).has_value();
  }

  /// Parses the value `text` of --key. The whole token must parse: "10k"
  /// or "0.5x" throws naming the flag instead of keeping the leading
  /// digits. Unsigned values (seeds) also take a 0x prefix.
  template <typename T>
  [[nodiscard]] static T parse(const std::string& key,
                               const std::string& text) {
    std::size_t used = 0;
    T value{};
    try {
      if constexpr (std::is_floating_point_v<T>) {
        value = std::stod(text, &used);
      } else if constexpr (std::is_unsigned_v<T>) {
        value = std::stoull(text, &used, 0);
      } else {
        value = std::stoll(text, &used);
      }
    } catch (const std::logic_error&) {
      used = 0;  // not a number, or out of range: rejected below
    }
    if (used == 0 || used != text.size()) {
      const char* kind =
          std::is_floating_point_v<T> ? "a number" : "an integer";
      throw std::invalid_argument("--" + key + " expects " + kind +
                                  ", got '" + text + "'");
    }
    return value;
  }

 private:
  std::map<std::string, std::string> values_;
};

core::Scheme parse_scheme(const std::string& name) {
  if (name == "simple") return core::Scheme::kSimple;
  if (name == "gs" || name == "golle-stubblebine") {
    return core::Scheme::kGolleStubblebine;
  }
  if (name == "balanced") return core::Scheme::kBalanced;
  if (name == "min-assign") return core::Scheme::kMinAssignment;
  if (name == "min-mult") return core::Scheme::kMinMultiplicity;
  throw std::invalid_argument("unknown scheme '" + name + "'");
}

sim::CheatStrategy parse_strategy(const std::string& name) {
  if (name == "honest") return sim::CheatStrategy::kHonest;
  if (name == "always") return sim::CheatStrategy::kAlwaysCheat;
  if (name == "singletons") return sim::CheatStrategy::kSingletons;
  if (name == "pairs") return sim::CheatStrategy::kExactTuple;
  throw std::invalid_argument("unknown strategy '" + name + "'");
}

core::RealizedPlan load_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open plan file '" + path + "'");
  return core::read_plan(in);
}

int cmd_plan(const Args& args) {
  core::PlanRequest request;
  request.task_count = args.integer("tasks");
  request.epsilon = args.number("epsilon");
  request.scheme = parse_scheme(args.get("scheme").value_or("balanced"));
  request.minimum_multiplicity = args.integer("min-mult", 2);
  request.lp_dimension = args.integer("lp-dim", 12);
  request.add_ringers = !args.flag("no-ringers");

  const core::Plan plan = core::make_plan(request);
  std::cout << "scheme:            " << plan.theoretical.label() << "\n"
            << "tasks:             " << rep::with_commas(plan.realized.task_count) << "\n"
            << "total assignments: "
            << rep::with_commas(plan.realized.total_assignments()) << "\n"
            << "redundancy factor: "
            << rep::fixed(plan.realized.redundancy_factor(), 4) << "\n"
            << "tail:              " << plan.realized.tail_tasks
            << " task(s) at multiplicity " << plan.realized.tail_multiplicity
            << "\n"
            << "ringers:           " << plan.realized.ringer_count
            << " at multiplicity " << plan.realized.ringer_multiplicity << "\n"
            << "guaranteed level:  " << rep::fixed(plan.achieved_level, 4)
            << "   (at p=0.10: " << rep::fixed(plan.achieved_level_p10, 4)
            << ")\n";
  if (const auto out = args.get("out")) {
    std::ofstream file(*out);
    if (!file) throw std::invalid_argument("cannot write '" + *out + "'");
    core::write_plan(file, plan.realized);
    std::cout << "plan written to:   " << *out << "\n";
  }
  return 0;
}

int cmd_analyze(const Args& args) {
  const core::RealizedPlan plan = load_plan(args.require("plan"));
  const double epsilon = args.number("epsilon");
  const bool has_ringers = plan.ringer_count > 0;
  const core::Distribution deployed = plan.as_distribution(has_ringers);

  std::cout << "tasks " << rep::with_commas(plan.task_count) << ", assignments "
            << rep::with_commas(plan.total_assignments()) << ", RF "
            << rep::fixed(plan.redundancy_factor(), 4) << "\n\n";

  rep::Table table({"k", "P_k (p->0)", "P_k (p=0.05)", "P_k (p=0.15)"});
  const std::int64_t top = deployed.dimension() - (has_ringers ? 1 : 0);
  for (std::int64_t k = 1; k <= top; ++k) {
    table.add_row({std::to_string(k),
                   rep::fixed(core::detection_probability(deployed, k, 0.0), 4),
                   rep::fixed(core::detection_probability(deployed, k, 0.05), 4),
                   rep::fixed(core::detection_probability(deployed, k, 0.15), 4)});
  }
  table.print(std::cout);

  const auto report = core::check_validity(
      deployed, static_cast<double>(plan.task_count), epsilon, 5e-3);
  std::cout << "\nvalidity at eps=" << epsilon << ": "
            << (report.valid ? "OK" : "VIOLATED") << "\n";
  for (const auto& violation : report.violations) {
    std::cout << "  " << violation.description << "\n";
  }
  return report.valid ? 0 : 2;
}

int cmd_simulate(const Args& args) {
  const core::RealizedPlan plan = load_plan(args.require("plan"));
  sim::AdversaryConfig adversary;
  adversary.proportion = args.number("adversary");
  adversary.strategy = parse_strategy(args.get("strategy").value_or("always"));
  if (adversary.strategy == sim::CheatStrategy::kExactTuple) {
    adversary.tuple_size = 2;
  }
  sim::MonteCarloConfig config;
  config.replicas = args.integer("replicas", 100);
  config.master_seed = static_cast<std::uint64_t>(args.integer("seed", 1));

  redund::parallel::ThreadPool pool(
      static_cast<std::size_t>(args.integer("threads", 0)));
  const sim::Workload workload(plan);
  const auto result = sim::run_monte_carlo(pool, workload, adversary, config);

  std::cout << "replicas:            " << result.replicas << "\n"
            << "adversary share:     " << adversary.proportion << " ("
            << to_string(adversary.strategy) << ")\n"
            << "cheat attempts/run:  "
            << result.cheat_attempts / std::max<std::int64_t>(1, result.replicas)
            << "\n"
            << "detection rate:      "
            << rep::fixed(result.detection_rate(), 4) << "\n"
            << "alarm probability:   "
            << rep::fixed(result.alarm_probability(), 4) << "\n"
            << "corruption prob.:    "
            << rep::fixed(result.corruption_probability(), 4) << "\n";
  return 0;
}

int cmd_run_async(const Args& args) {
  namespace runtime = redund::runtime;
  runtime::RuntimeConfig config;
  if (const auto plan_path = args.get("plan")) {
    config.plan = load_plan(*plan_path);
  } else {
    core::PlanRequest request;
    request.task_count = args.integer("tasks", 2000);
    request.epsilon = args.number("epsilon", 0.5);
    request.scheme = parse_scheme(args.get("scheme").value_or("balanced"));
    config.plan = core::make_plan(request).realized;
  }
  config.honest_participants = args.integer("participants", 120);
  config.sybil_identities = args.integer("sybils", 30);
  config.strategy = parse_strategy(args.get("strategy").value_or("always"));
  if (config.strategy == sim::CheatStrategy::kExactTuple) {
    config.tuple_size = 2;
  }
  config.benign_error_rate = args.number("benign-rate", 0.0);
  config.reactive = !args.flag("no-reactive");
  config.latency.straggler_fraction = args.number("stragglers", 0.15);
  config.latency.straggler_slowdown = args.number("slowdown", 8.0);
  config.latency.dropout_probability = args.number("dropout", 0.02);
  config.latency.speed_sigma = args.number("speed-sigma", 0.25);
  config.retry.deadline = args.number("deadline", 0.0);
  config.retry.max_retries = args.integer("retries", 3);
  config.adaptive.enabled = !args.flag("no-adaptive");
  if (args.flag("adaptive")) {
    // Online adaptive control: the controller's detection target defaults
    // to the plan's own epsilon so "keep the configured level" needs no
    // extra flag.
    config.control.enabled = true;
    config.control.epsilon = args.number("epsilon", 0.5);
    config.control.replan_interval =
        args.integer("replan-interval", config.control.replan_interval);
  }
  config.sample_interval = args.number("sample-interval", 0.0);
  config.seed = static_cast<std::uint64_t>(args.integer("seed", 1));
  if (const auto fault_plan = args.get("fault-plan")) {
    config.faults = runtime::FaultSchedule::load(*fault_plan);
  }
  config.health.max_sim_time = args.number("max-sim-time", 0.0);
  config.health.recompute_budget = args.integer("recompute-budget", -1);
  if (const auto journal = args.get("journal")) {
    config.journal.path = *journal;
    config.journal.checkpoint_interval =
        args.integer("checkpoint-interval", 4096);
    config.journal.full_snapshot_every =
        args.integer("full-snapshot-every", 8);
    config.journal.wal = !args.flag("no-wal");
  }
  const std::string queue_name = args.get("queue").value_or("calendar");
  if (queue_name == "heap") {
    config.queue = runtime::QueueKind::kBinaryHeap;
  } else if (queue_name == "calendar") {
    config.queue = runtime::QueueKind::kCalendar;
  } else {
    throw std::invalid_argument("unknown --queue '" + queue_name +
                                "' (heap|calendar)");
  }

  const std::int64_t shards = args.integer("shards", 1);
  const bool resume = args.flag("resume");
  if (resume) {
    if (config.journal.path.empty()) {
      throw std::invalid_argument("run-async: --resume requires --journal");
    }
    if (shards > 1) {
      // Fleet resume: each shard restores from its own journal, falls
      // back to the partner copy (L3) in the next shard's journal, and
      // re-runs from scratch as a last resort — bit-identical either way.
      redund::parallel::ThreadPool pool(
          static_cast<std::size_t>(args.integer("threads", 0)));
      const runtime::RuntimeReport report =
          runtime::resume_sharded_campaign(config, shards, pool);
      runtime::print(std::cout, report);
      return 0;
    }
    const runtime::RuntimeReport report =
        runtime::resume_async_campaign(config);
    runtime::print(std::cout, report);
    return 0;
  }
  if (shards > 1) {
    redund::parallel::ThreadPool pool(
        static_cast<std::size_t>(args.integer("threads", 0)));
    const runtime::RuntimeReport report =
        runtime::run_sharded_campaign(config, shards, pool);
    runtime::print(std::cout, report);
    return 0;
  }
  const runtime::RuntimeReport report = runtime::run_async_campaign(config);
  runtime::print(std::cout, report);
  return 0;
}

int cmd_budget(const Args& args) {
  const double tasks = args.number("tasks");
  const double budget = args.number("budget");
  const double p = args.number("adversary", 0.0);

  const double affordable = core::balanced_level_for_budget(tasks, budget);
  std::cout << "affordable asymptotic level: " << rep::fixed(affordable, 4)
            << "\n";
  if (affordable <= 0.0) {
    std::cout << "budget is below one assignment per task — unworkable\n";
    return 2;
  }
  if (p > 0.0) {
    const double effective = core::balanced_detection(affordable, p);
    std::cout << "effective level at p=" << p << ": "
              << rep::fixed(effective, 4) << "\n";
    const double design = core::balanced_level_for_robustness(affordable, p);
    std::cout << "to guarantee " << rep::fixed(affordable, 4) << " at p=" << p
              << ", design for eps=" << rep::fixed(design, 4) << " costing "
              << rep::with_commas(tasks *
                                  core::balanced_redundancy_factor(design))
              << " assignments\n";
  }
  return 0;
}

int cmd_audit(const Args& args) {
  namespace runtime = redund::runtime;
  runtime::AuditOptions options;
  if (args.flag("quick")) options = runtime::quick_audit_options();
  if (const auto seed = args.get("seed")) {
    options.seed = Args::parse<std::uint64_t>("seed", *seed);
  }
  options.target_tasks = args.integer("tasks", options.target_tasks);
  if (const auto scratch = args.get("scratch")) {
    options.scratch_dir = *scratch;
  }
  const runtime::AuditResult result =
      runtime::run_determinism_audit(options, std::cout);
  return result.passed ? 0 : 1;
}

int cmd_help() {
  std::cout <<
      R"(redundctl — collusion-resistant redundancy planning (CLUSTER 2005)

subcommands:
  plan     --tasks N --epsilon E [--scheme simple|gs|balanced|min-assign|min-mult]
           [--min-mult M] [--lp-dim D] [--no-ringers] [--out FILE]
  analyze  --plan FILE --epsilon E
  simulate --plan FILE --adversary P [--replicas R] [--seed S]
           [--strategy honest|always|singletons|pairs] [--threads T]
  run-async [--plan FILE | --tasks N --epsilon E [--scheme NAME]]
           [--participants P] [--sybils K] [--strategy NAME]
           [--stragglers F] [--slowdown X] [--dropout D] [--speed-sigma S]
           [--deadline T] [--retries R] [--benign-rate B]
           [--sample-interval T] [--no-adaptive] [--no-reactive] [--seed S]
           [--adaptive [--replan-interval N]]
           [--queue heap|calendar] [--fault-plan FILE] [--max-sim-time T]
           [--recompute-budget N]
           [--journal FILE [--checkpoint-interval N]
            [--full-snapshot-every N] [--no-wal] [--resume]]
           [--shards S [--threads T]]
  budget   --tasks N --budget B [--adversary P]
  audit    [--quick] [--seed S] [--tasks N] [--scratch DIR]
  help
)";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string command = argc > 1 ? argv[1] : "help";
    if (command == "help" || command == "--help" || command == "-h") {
      return cmd_help();
    }
    const Args args(argc, argv);
    if (command == "plan") return cmd_plan(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "run-async") return cmd_run_async(args);
    if (command == "budget") return cmd_budget(args);
    if (command == "audit") return cmd_audit(args);
    std::cerr << "unknown subcommand '" << command << "' (try: help)\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "redundctl: " << error.what() << "\n";
    return 1;
  }
}
