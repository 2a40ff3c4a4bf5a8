// redund_e2e — shared declarations of the end-to-end benchmark.
//
// The benchmark drives the library only through its public entry points
// (make_plan, run_async_campaign, run_sharded_campaign, run_monte_carlo,
// ...) on configs it generates from its seed, one op at a time (closed
// loop), for a run length fixed by an op count so that two commits do
// identical work. Tracing is a separate mode: spans recorded here, in the
// benchmark's own code, around each call into a layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace redund::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) noexcept {
  return std::chrono::duration<double>(to - from).count();
}

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ----------------------------------------------------------------- stats

/// Median (mean of the middle pair for even counts); 0 for no samples.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. At n = 50, q = 0.8 leaves ten samples beyond.
[[nodiscard]] double nearest_rank(std::vector<double> values, double q);

/// First and third quartile by Python's statistics.quantiles(n=4)
/// ("exclusive" method). Needs at least two samples.
[[nodiscard]] std::pair<double, double> quartiles(std::vector<double> values);

// ------------------------------------------------------------------ json

/// A parsed JSON value of the repo's JSON subset; booleans and null are
/// kept as kOther.
struct Json {
  enum class Kind { kOther, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kOther;
  double number = 0.0;
  std::string string;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> members;

  /// The member named `key` of an object, or null.
  [[nodiscard]] const Json* find(const std::string& key) const;
};

/// Parses a whole file; throws std::runtime_error on I/O or syntax errors.
[[nodiscard]] Json read_json_file(const std::string& path);

// --------------------------------------------------------------- tracing

/// In-memory span recorder. A span has a name, start, end, parent and op
/// id; spans of one op share the op id. Nothing is written until
/// write_chrome_trace() runs at exit.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;  ///< Seconds since the run's origin.
    double end_s = 0.0;
    int parent = -1;       ///< Index of the enclosing span, -1 at the root.
    int op = -1;           ///< Op id; -1 for layer-probe spans.
  };

  /// Span times count from `origin`, shared by every tracer of a run so
  /// their tracks line up in one timeline.
  explicit Tracer(Clock::time_point origin);

  [[nodiscard]] int begin(std::string name, int op);
  void end(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  ///< Stack of open span ids.
};

/// RAII span; a null tracer makes it a no-op that reads no clock.
class Span {
 public:
  Span(Tracer* tracer, const char* name, int op)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->begin(name, op) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&&) = delete;
  Span& operator=(Span&&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Writes Chrome trace-event JSON ("X" complete events, microseconds):
/// one process row per named tracer.
void write_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, const Tracer*>>& tracks);

/// Per-span-name totals of one tracer, and the share of op time no child
/// span covers.
struct Ledger {
  struct Row {
    std::string name;
    std::int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::vector<Row> rows;        ///< Sorted by self time, descending.
  std::int64_t ops = 0;
  double op_total_s = 0.0;      ///< Sum of root "op" span durations.
  double residual_share = 0.0;  ///< Op self time / op total time.
};

[[nodiscard]] Ledger build_ledger(const Tracer& tracer);

// ------------------------------------------------------------------ host

/// Facts about the machine and the build that produced the numbers.
struct HostFacts {
  std::int64_t nproc = 0;          ///< CPUs in the affinity mask.
  std::string affinity;            ///< That mask as a CPU list ("0-3").
  std::string cpu_model;
  std::string l2;                  ///< Cache sizes as sysfs reports them.
  std::string l3;
  std::string compiler;
  std::string git_rev;
  bool ndebug = false;
  bool invariants = false;         ///< REDUND_ENABLE_INVARIANTS.
  bool simd = false;               ///< REDUND_SIMD_ENABLED.
  bool optimized = false;          ///< __OPTIMIZE__ seen by this TU.
};

[[nodiscard]] HostFacts host_facts();

/// min(nproc, 4): the most threads any workload may run at once.
[[nodiscard]] std::int64_t thread_budget();

/// Resets the kernel's peak-RSS mark (VmHWM) for this process.
void reset_peak_rss();
/// Peak resident set since the last reset, in MiB (0 if unreadable).
[[nodiscard]] double peak_rss_mb();

// ------------------------------------------------------------- workloads

/// One op's outputs: the fingerprint of what it computed, the simulated
/// metrics it produced, and any failed check.
struct OpResult {
  std::uint64_t fingerprint = 0;
  std::vector<std::string> failures;
  double redundancy_factor = 0.0;
  double corrupt_task_rate = 0.0;
  double makespan = 0.0;            ///< Runtime workloads only.
  double detection_rate = 0.0;      ///< plan_verify only.
  double resume_s = 0.0;            ///< journal_resume only.
  double journal_bytes_per_event = 0.0;  ///< journal_resume only.
};

/// A workload: set-up products held between ops, and the op itself.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds what every op reuses (pool, parsed fault file, scratch dir).
  virtual void setup() = 0;
  /// Runs one op on `seed`. `op` labels spans; `tracer` may be null.
  [[nodiscard]] virtual OpResult run(std::uint64_t seed, int op,
                                     Tracer* tracer) = 0;
};

struct WorkloadInfo {
  const char* name;
  double reference_op_s;  ///< Measured op time, sizes --seconds runs.
  bool runtime;           ///< Drives the supervisor runtime.
};

/// The five workloads, in run order.
[[nodiscard]] const std::vector<WorkloadInfo>& workload_infos();

/// Creates workload `name`. `scale` divides every size (1 = full, 10 for
/// --smoke); `data_dir` holds workloads/*.faults.json; `scratch_dir`
/// receives journals.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::int64_t scale, const std::string& data_dir,
    const std::string& scratch_dir);

// ---------------------------------------------------------------- layers

/// Result of the isolated layer probes: per-layer metrics and failed
/// equality checks.
struct LayerReport {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
};

/// Runs every layer probe once, with a span around each timed call.
[[nodiscard]] LayerReport run_layer_probes(std::int64_t scale,
                                            const std::string& data_dir,
                                            const std::string& scratch_dir,
                                            std::uint64_t seed,
                                            Tracer& tracer);

// ---------------------------------------------------------------- compare

/// `redund_e2e compare BASE.json... -- NEW.json...`.
[[nodiscard]] int run_compare(const std::vector<std::string>& args);

}  // namespace redund::e2e
