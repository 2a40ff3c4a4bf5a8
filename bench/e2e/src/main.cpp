// redund_e2e — end-to-end benchmark of the redundancy library.
//
//   redund_e2e [--workload NAME[,NAME...]|all] [--seed S]
//              [--ops N | --seconds S] [--smoke] [--trace FILE]
//              [--out FILE] [--scratch DIR] [--record-expected FILE]
//   redund_e2e compare BASE.json... -- NEW.json...
//
// Runs each workload closed-loop: set-up (timed, repeated, median), one
// untimed warm-up op, then a fixed number of timed ops, op i on seed S+i.
// Prints host facts, then every end-to-end metric as
// `workload.metric value unit`, and last a one-line JSON summary.
// --trace FILE adds a traced pass over the same ops plus the isolated
// layer probes, writes Chrome trace-event JSON to FILE and prints the
// per-layer metrics and the self-time ledger. See bench/e2e/README.md.
#include <malloc.h>

#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/jsonio.hpp"
#include "e2e.hpp"

namespace redund::e2e {

namespace {

namespace fs = std::filesystem;

constexpr int kSetupRepeats = 3;
constexpr std::int64_t kDefaultOps = 50;
constexpr std::int64_t kMinOps = 5;

struct Options {
  std::vector<std::string> workloads;
  std::uint64_t seed = 1;
  std::int64_t ops = 0;          ///< 0: derive from seconds, else default.
  double seconds = 0.0;
  bool smoke = false;
  std::string trace_path;
  std::string out_path;
  std::string scratch_dir;
  std::string record_path;
};

[[noreturn]] void usage_error(const std::string& what) {
  throw std::invalid_argument(what +
                              " (usage: redund_e2e [--workload NAME|all] "
                              "[--seed S] [--ops N | --seconds S] [--smoke] "
                              "[--trace FILE] [--out FILE] [--scratch DIR] "
                              "[--record-expected FILE] | compare ...)");
}

Options parse(int argc, char** argv) {
  Options options;
  std::string workloads = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + key);
      return argv[++i];
    };
    if (key == "--workload") {
      workloads = value();
    } else if (key == "--seed") {
      options.seed = std::stoull(value());
    } else if (key == "--ops") {
      options.ops = std::stoll(value());
      if (options.ops < 1) usage_error("--ops must be >= 1");
    } else if (key == "--seconds") {
      options.seconds = std::stod(value());
      if (!(options.seconds > 0.0)) usage_error("--seconds must be > 0");
    } else if (key == "--smoke") {
      options.smoke = true;
    } else if (key == "--trace") {
      options.trace_path = value();
    } else if (key == "--out") {
      options.out_path = value();
    } else if (key == "--scratch") {
      options.scratch_dir = value();
    } else if (key == "--record-expected") {
      options.record_path = value();
    } else {
      usage_error("unknown argument '" + key + "'");
    }
  }
  std::set<std::string> known;
  for (const WorkloadInfo& info : workload_infos()) known.insert(info.name);
  std::stringstream list(workloads);
  for (std::string name; std::getline(list, name, ',');) {
    if (name == "all") {
      for (const WorkloadInfo& info : workload_infos()) {
        options.workloads.emplace_back(info.name);
      }
    } else if (known.count(name) != 0) {
      options.workloads.push_back(name);
    } else {
      usage_error("unknown workload '" + name + "'");
    }
  }
  if (options.scratch_dir.empty()) {
    const fs::path exe(argv[0]);
    options.scratch_dir =
        (exe.has_parent_path() ? exe.parent_path() : fs::path(".")) /
        "e2e-scratch";
  }
  return options;
}

/// The op count: explicit, or sized from --seconds by the workload's
/// reference op time, or the default. Never a wall-clock budget: the
/// count depends only on the arguments, so two commits do the same work.
std::int64_t op_count(const Options& options, const WorkloadInfo& info) {
  if (options.smoke) return 2;
  if (options.ops > 0) return options.ops;
  if (options.seconds > 0.0) {
    return std::max<std::int64_t>(
        kMinOps, std::llround(options.seconds / info.reference_op_s));
  }
  return kDefaultOps;
}

const WorkloadInfo& info_of(const std::string& name) {
  for (const WorkloadInfo& info : workload_infos()) {
    if (name == info.name) return info;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Recorded per-op fingerprints: workload -> (first seed, values).
struct Expected {
  std::map<std::string, std::pair<std::uint64_t, std::vector<std::uint64_t>>>
      fingerprints;

  /// The recorded fingerprint of `workload` at op seed `seed`, if any.
  [[nodiscard]] std::optional<std::uint64_t> lookup(const std::string& workload,
                                                    std::uint64_t seed) const {
    const auto it = fingerprints.find(workload);
    if (it == fingerprints.end() || seed < it->second.first) return std::nullopt;
    const std::uint64_t index = seed - it->second.first;
    if (index >= it->second.second.size()) return std::nullopt;
    return it->second.second[index];
  }
};

/// Reads expected.json (see expected_document); a missing file records
/// nothing, a malformed one is an error.
Expected load_expected(const std::string& path) {
  Expected expected;
  if (!fs::exists(path)) return expected;
  const Json root = read_json_file(path);
  const Json* all = root.find("fingerprints");
  if (all == nullptr) return expected;
  for (const auto& [workload, entry] : all->members) {
    auto& [first_seed, values] = expected.fingerprints[workload];
    if (const Json* seed = entry.find("first_seed")) {
      first_seed = static_cast<std::uint64_t>(seed->number);
    }
    if (const Json* list = entry.find("values")) {
      for (const Json& value : list->items) {
        values.push_back(std::stoull(value.string, nullptr, 16));
      }
    }
  }
  return expected;
}

/// Everything one workload produced.
struct WorkloadRun {
  std::string name;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<Metric> metrics;      ///< End-to-end.
  std::vector<Metric> traced;       ///< Ledger metrics (traced runs).
  std::vector<double> op_s;
  std::vector<std::uint64_t> fingerprints;
  Ledger ledger;
};

void note_failures(WorkloadRun& run, int op, const OpResult& result) {
  if (result.failures.empty()) return;
  ++run.failed;
  for (const std::string& failure : result.failures) {
    run.failures.push_back(run.name + " op " + std::to_string(op) + ": " +
                           failure);
  }
}

WorkloadRun run_workload(const Options& options, const std::string& name,
                         const std::string& data_dir, const Expected& expected,
                         Tracer* tracer) {
  const WorkloadInfo& info = info_of(name);
  const std::int64_t scale = options.smoke ? 10 : 1;
  const std::int64_t ops = op_count(options, info);
  WorkloadRun run;
  run.name = name;
  reset_peak_rss();

  // Set-up: building what every op reuses plus the cold warm-up op (seed
  // S, the same as timed op 0), repeated; the median is reported.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  std::uint64_t warm_fingerprint = 0;
  const int repeats = options.smoke ? 1 : kSetupRepeats;
  for (int r = 0; r < repeats; ++r) {
    workload.reset();
    const Clock::time_point start = Clock::now();
    workload = make_workload(name, scale, data_dir,
                             options.scratch_dir + "/" + name);
    workload->setup();
    const OpResult warm = workload->run(options.seed, -1, nullptr);
    setup_s.push_back(seconds_between(start, Clock::now()));
    ++run.attempted;
    note_failures(run, -1, warm);
    if (r > 0 && warm.fingerprint != warm_fingerprint) {
      run.failures.push_back(name + ": warm-up ops on one seed disagree");
      ++run.failed;
    }
    warm_fingerprint = warm.fingerprint;
  }

  // A traced run times every op twice in a row, without and then with
  // spans, so drift cancels out of trace.overhead; it runs half the ops,
  // which keeps it near an untraced run's length.
  const std::int64_t count =
      tracer != nullptr ? std::max<std::int64_t>(1, ops / 2) : ops;
  std::vector<OpResult> results;
  std::vector<double> traced_s;
  for (std::int64_t i = 0; i < count; ++i) {
    const std::uint64_t seed = options.seed + static_cast<std::uint64_t>(i);
    const int op = static_cast<int>(i);
    Clock::time_point start = Clock::now();
    OpResult result = workload->run(seed, op, nullptr);
    run.op_s.push_back(seconds_between(start, Clock::now()));
    ++run.attempted;
    if (i == 0 && result.fingerprint != warm_fingerprint) {
      result.failures.push_back("differs from the warm-up op on the same seed");
    }
    // Fingerprints are recorded at full scale only.
    if (const auto want = expected.lookup(name, seed);
        scale == 1 && want.has_value() && *want != result.fingerprint) {
      result.failures.push_back("fingerprint " + hex(result.fingerprint) +
                                " != recorded " + hex(*want) + " for seed " +
                                std::to_string(seed));
    }
    note_failures(run, op, result);
    run.fingerprints.push_back(result.fingerprint);
    if (tracer != nullptr) {
      start = Clock::now();
      OpResult traced = workload->run(seed, op, tracer);
      traced_s.push_back(seconds_between(start, Clock::now()));
      ++run.attempted;
      if (traced.fingerprint != result.fingerprint) {
        traced.failures.push_back("traced op differs from the untraced op");
      }
      note_failures(run, op, traced);
    }
    results.push_back(std::move(result));
  }

  const auto field = [&](double OpResult::*member) {
    std::vector<double> values;
    for (const OpResult& r : results) values.push_back(r.*member);
    return values;
  };
  auto& m = run.metrics;
  m.push_back({"setup_s", median(setup_s), "s"});
  m.push_back({"op_s_p50", median(run.op_s), "s"});
  m.push_back({"op_s_p80", nearest_rank(run.op_s, 0.8), "s"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  m.push_back({"redundancy_factor", mean(field(&OpResult::redundancy_factor)),
               "ratio"});
  m.push_back({"corrupt_task_rate", mean(field(&OpResult::corrupt_task_rate)),
               "ratio"});
  if (info.runtime) {
    m.push_back({"makespan_sim", mean(field(&OpResult::makespan)), "sim-time"});
  } else {
    m.push_back({"detection_rate", mean(field(&OpResult::detection_rate)),
                 "ratio"});
  }
  if (name == "journal_resume") {
    m.push_back({"resume_s_p50", median(field(&OpResult::resume_s)), "s"});
    m.push_back({"journal_bytes_per_event",
                 mean(field(&OpResult::journal_bytes_per_event)), "B"});
  }

  if (tracer != nullptr) {
    run.ledger = build_ledger(*tracer);
    run.traced.push_back(
        {"ledger.residual_share", run.ledger.residual_share, "ratio"});
    run.traced.push_back(
        {"trace.overhead", median(traced_s) / median(run.op_s), "ratio"});
    run.traced.push_back({"ledger.op_s_p50_traced", median(traced_s), "s"});
  }
  m.push_back({"failed_share",
               static_cast<double>(run.failed) /
                   static_cast<double>(run.attempted),
               "ratio"});
  return run;
}

void print_host(const HostFacts& host) {
  std::cout << "# host nproc=" << host.nproc << " affinity=" << host.affinity
            << " cpu=\"" << host.cpu_model << "\" l2=" << host.l2
            << " l3=" << host.l3 << "\n"
            << "# build compiler=\"" << host.compiler << "\" git=" << host.git_rev
            << " NDEBUG=" << host.ndebug
            << " REDUND_ENABLE_INVARIANTS=" << host.invariants
            << " REDUND_SIMD_ENABLED=" << host.simd
            << " optimized=" << host.optimized << "\n";
}

/// Shortest decimal that reads back as the same double: every digit the
/// measurement has, none it does not.
std::string number(double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end)
                           : core::json_format_double(value);
}

void print_metric(const std::string& prefix, const Metric& metric) {
  std::cout << prefix << metric.name << " " << number(metric.value) << " "
            << metric.unit << "\n";
}

void print_ledger(const WorkloadRun& run) {
  const Ledger& ledger = run.ledger;
  const double ops = static_cast<double>(std::max<std::int64_t>(1, ledger.ops));
  std::printf("# ledger %s: %" PRId64 " traced ops, self time per op\n",
              run.name.c_str(), ledger.ops);
  std::printf("#   %-36s %8s %12s %12s %7s\n", "span", "count", "total_ms/op",
              "self_ms/op", "share");
  double self_sum = 0.0;
  for (const Ledger::Row& row : ledger.rows) {
    self_sum += row.self_s;
    std::printf("#   %-36s %8" PRId64 " %12.3f %12.3f %6.2f%%\n",
                row.name.c_str(), row.count, 1e3 * row.total_s / ops,
                1e3 * row.self_s / ops,
                100.0 * row.self_s / std::max(ledger.op_total_s, 1e-300));
  }
  double traced_p50 = 0.0;
  for (const Metric& metric : run.traced) {
    if (metric.name == "ledger.op_s_p50_traced") traced_p50 = metric.value;
  }
  std::printf(
      "#   self times sum to %.3f ms/op (mean); traced op_s_p50 %.3f ms; "
      "mean - p50 %.3f ms; unspanned residual %.2f%% of op time\n",
      1e3 * self_sum / ops, 1e3 * traced_p50, 1e3 * (self_sum / ops - traced_p50),
      100.0 * ledger.residual_share);
}

void append_metrics(std::string& out, const std::vector<Metric>& metrics,
                    const std::string& prefix, bool& first) {
  for (const Metric& metric : metrics) {
    out += first ? "" : ", ";
    first = false;
    core::json_append_escaped(out, prefix + metric.name);
    out += ": {\"value\": " + number(metric.value) + ", \"unit\": ";
    core::json_append_escaped(out, metric.unit);
    out += "}";
  }
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  file << text;
  if (!file.flush()) throw std::runtime_error("cannot write '" + path + "'");
}

std::string out_document(const Options& options, const HostFacts& host,
                         const std::vector<WorkloadRun>& runs,
                         const LayerReport* layers) {
  std::string out = "{\n  \"schema\": \"redund-e2e-v1\",\n  \"host\": {";
  out += "\"nproc\": " + std::to_string(host.nproc) + ", \"affinity\": ";
  core::json_append_escaped(out, host.affinity);
  out += ", \"cpu_model\": ";
  core::json_append_escaped(out, host.cpu_model);
  out += ", \"l2\": ";
  core::json_append_escaped(out, host.l2);
  out += ", \"l3\": ";
  core::json_append_escaped(out, host.l3);
  out += ", \"compiler\": ";
  core::json_append_escaped(out, host.compiler);
  out += ", \"git_rev\": ";
  core::json_append_escaped(out, host.git_rev);
  out += std::string(", \"NDEBUG\": ") + (host.ndebug ? "true" : "false") +
         ", \"REDUND_ENABLE_INVARIANTS\": " +
         (host.invariants ? "true" : "false") + ", \"REDUND_SIMD_ENABLED\": " +
         (host.simd ? "true" : "false") + "},\n";
  out += "  \"seed\": " + std::to_string(options.seed) + ",\n";
  out += std::string("  \"traced\": ") + (layers != nullptr ? "true" : "false") +
         ",\n  \"workloads\": {";
  for (std::size_t w = 0; w < runs.size(); ++w) {
    const WorkloadRun& run = runs[w];
    out += w == 0 ? "\n    " : ",\n    ";
    core::json_append_escaped(out, run.name);
    out += ": {\"ops\": " + std::to_string(run.op_s.size()) +
           ", \"attempted\": " + std::to_string(run.attempted) +
           ", \"failed\": " + std::to_string(run.failed) + ", \"metrics\": {";
    bool first = true;
    append_metrics(out, run.metrics, "", first);
    append_metrics(out, run.traced, "", first);
    out += "}, \"op_s\": [";
    for (std::size_t i = 0; i < run.op_s.size(); ++i) {
      if (i > 0) out += ", ";
      out += number(run.op_s[i]);
    }
    out += "], \"fingerprints\": [";
    for (std::size_t i = 0; i < run.fingerprints.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += hex(run.fingerprints[i]);
      out += '"';
    }
    out += "]}";
  }
  out += "\n  }";
  if (layers != nullptr) {
    out += ",\n  \"layers\": {";
    bool first = true;
    append_metrics(out, layers->metrics, "", first);
    out += "}";
  }
  out += "\n}\n";
  return out;
}

std::string expected_document(const Options& options,
                              const std::vector<WorkloadRun>& runs) {
  std::string out =
      "{\n  \"schema\": \"redund-e2e-expected-v1\",\n"
      "  \"note\": \"per-op report fingerprints, op i on seed first_seed + i; "
      "regenerate with redund_e2e --seed 1 --ops 50 --record-expected FILE\",\n"
      "  \"fingerprints\": {";
  for (std::size_t w = 0; w < runs.size(); ++w) {
    out += w == 0 ? "\n    " : ",\n    ";
    core::json_append_escaped(out, runs[w].name);
    out += ": {\"first_seed\": " + std::to_string(options.seed) +
           ", \"values\": [";
    for (std::size_t i = 0; i < runs[w].fingerprints.size(); ++i) {
      if (i > 0) out += ",";
      out += i % 4 == 0 ? "\n      \"" : " \"";
      out += hex(runs[w].fingerprints[i]);
      out += "\"";
    }
    out += "]}";
  }
  out += "\n  }\n}\n";
  return out;
}

int run_benchmark(const Options& options) {
  const HostFacts host = host_facts();
  print_host(host);
  if (!host.optimized || host.invariants) {
    std::cerr << "redund_e2e: refusing to report from a build "
              << (host.optimized ? "with invariants on" : "without optimisation")
              << "; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 2;
  }
  const std::string data_dir = REDUND_E2E_SOURCE_DIR;
  const Expected expected = load_expected(data_dir + "/expected.json");
  fs::create_directories(options.scratch_dir);

  // Each workload traces into its own tracer (its ledger), the layer
  // probes into one more; all share an origin for the combined timeline.
  const bool traced = !options.trace_path.empty();
  const Clock::time_point origin = Clock::now();
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::pair<std::string, const Tracer*>> tracks;

  std::vector<WorkloadRun> runs;
  for (const std::string& name : options.workloads) {
    Tracer* tracer = nullptr;
    if (traced) {
      tracers.push_back(std::make_unique<Tracer>(origin));
      tracer = tracers.back().get();
      tracks.emplace_back(name, tracer);
    }
    WorkloadRun run = run_workload(options, name, data_dir, expected, tracer);
    for (const Metric& metric : run.metrics) print_metric(name + ".", metric);
    if (traced) {
      for (const Metric& metric : run.traced) print_metric(name + ".", metric);
      print_ledger(run);
    }
    runs.push_back(std::move(run));
  }

  std::optional<LayerReport> layers;
  if (traced) {
    tracers.push_back(std::make_unique<Tracer>(origin));
    tracks.emplace_back("layers", tracers.back().get());
    layers = run_layer_probes(options.smoke ? 10 : 1, data_dir,
                               options.scratch_dir + "/layers", options.seed,
                               *tracers.back());
    for (const Metric& metric : layers->metrics) print_metric("", metric);
    write_chrome_trace(options.trace_path, tracks);
  }

  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;
  for (const WorkloadRun& run : runs) {
    attempted += run.attempted;
    failed += run.failed;
    failures.insert(failures.end(), run.failures.begin(), run.failures.end());
  }
  if (layers.has_value() && !layers->failures.empty()) {
    failed += static_cast<std::int64_t>(layers->failures.size());
    failures.insert(failures.end(), layers->failures.begin(),
                    layers->failures.end());
  }
  for (const std::string& failure : failures) {
    std::cerr << "redund_e2e: check failed: " << failure << "\n";
  }

  if (!options.out_path.empty()) {
    write_file(options.out_path,
               out_document(options, host, runs, layers ? &*layers : nullptr));
  }
  if (!options.record_path.empty()) {
    write_file(options.record_path, expected_document(options, runs));
  }

  // Last line: the machine-readable summary. Metric keys carry the
  // workload name unless exactly one workload ran.
  const bool single = runs.size() == 1;
  std::string summary = "{\"correct\": ";
  summary += failed == 0 ? "true" : "false";
  summary += ", \"attempted\": " + std::to_string(attempted) +
             ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  for (const WorkloadRun& run : runs) {
    const std::string prefix = single ? "" : run.name + ".";
    append_metrics(summary, run.metrics, prefix, first);
    append_metrics(summary, run.traced, prefix, first);
  }
  if (layers.has_value()) append_metrics(summary, layers->metrics, "", first);
  summary += "}}";
  std::cout << summary << std::endl;
  return failed == 0 ? 0 : 1;
}

}  // namespace

}  // namespace redund::e2e

int main(int argc, char** argv) {
  // Keep freed memory in the process: large blocks come from the heap
  // (up to glibc's 32 MiB cap) and the heap is never trimmed. Under the
  // default dynamic mmap threshold, whether a freed multi-megabyte array
  // was reused or a fresh one mapped depended on how threads interleaved
  // their allocations, and peak_rss_mb jumped by a whole array (20 <-> 35
  // MB on plan_verify) between identical runs.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    if (argc > 1 && std::string(argv[1]) == "compare") {
      return redund::e2e::run_compare(
          std::vector<std::string>(argv + 2, argv + argc));
    }
    return redund::e2e::run_benchmark(redund::e2e::parse(argc, argv));
  } catch (const std::invalid_argument& error) {
    std::cerr << "redund_e2e: " << error.what() << "\n";
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "redund_e2e: " << error.what() << "\n";
    return 1;
  }
}
