#include "runtime/audit.hpp"

#include <cstdlib>
#include <exception>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/realize.hpp"
#include "core/schemes/balanced.hpp"
#include "parallel/thread_pool.hpp"
#include "runtime/journal.hpp"
#include "runtime/sharded.hpp"

namespace redund::runtime {

namespace {

void put(StateWriter& w, std::int64_t value) { w.i64(value); }
void put(StateWriter& w, double value) { w.f64(value); }
void put(StateWriter& w, CampaignOutcome value) {
  w.u64(static_cast<std::uint64_t>(value));
}

}  // namespace

// redund: deterministic
std::uint64_t report_fingerprint(const RuntimeReport& report) {
  StateWriter w;
  w.reserve(1024 + 96 * report.series.size());
  for_each_field([&](const FieldInfo&, const auto& value) { put(w, value); },
                 report);
  w.u64(static_cast<std::uint64_t>(report.series.size()));
  for (const RuntimeSample& sample : report.series) {
    w.f64(sample.time);
    for_each_counter([&](const char*, std::int64_t value) { w.i64(value); },
                     sample);
  }
  return fnv1a_hash(w.text());
}

AuditOptions quick_audit_options() {
  AuditOptions options;
  options.target_tasks = 300;
  options.honest_participants = 40;
  options.sybil_identities = 8;
  options.shard_counts = {1, 2};
  options.thread_counts = {1, 2};
  options.kill_fractions = {0.5};
  return options;
}

namespace {

/// A fresh, uniquely named directory under the system temp path.
std::string make_scratch_dir() {
  std::string path =
      (std::filesystem::temp_directory_path() / "redund-audit-XXXXXX")
          .string();
  if (::mkdtemp(path.data()) == nullptr) {
    throw std::runtime_error(
        "determinism audit: cannot create a scratch directory " + path);
  }
  return path;
}

const char* queue_name(QueueKind kind) {
  return kind == QueueKind::kBinaryHeap ? "binary-heap" : "calendar";
}

RuntimeConfig base_config(const AuditOptions& options) {
  RuntimeConfig config;
  const auto tasks = static_cast<double>(options.target_tasks);
  config.plan = core::realize(
      core::make_balanced(tasks, 0.5, {.truncate_below = 1e-9}),
      options.target_tasks, 0.5);
  config.honest_participants = options.honest_participants;
  config.sybil_identities = options.sybil_identities;
  // Exercise the timeout/retry/adaptive machinery, not just the happy
  // path: stragglers and dropouts make deadlines fire and units re-deal.
  config.latency.straggler_fraction = 0.1;
  config.latency.dropout_probability = 0.02;
  config.sample_interval = 25.0;  // Series merge is part of the surface.
  config.seed = options.seed;
  return config;
}

/// The static base plus the online controller and an adversary whose
/// colluding fraction drifts mid-campaign (step down, then ramp back up)
/// — the configuration whose determinism the control subsystem must not
/// break: kReplan events, boost/release bookkeeping, and the re-plan
/// decisions a resumed re-run repeats all join the byte-identity
/// contract.
RuntimeConfig adaptive_config(const AuditOptions& options) {
  RuntimeConfig config = base_config(options);
  config.control.enabled = true;
  config.control.epsilon = 0.5;
  config.control.replan_interval = 48;
  config.control.min_observations = 24;
  config.faults.events.push_back({.time = 40.0,
                                  .kind = FaultKind::kPDrift,
                                  .fraction = 0.3});
  config.faults.events.push_back({.time = 160.0,
                                  .kind = FaultKind::kPDrift,
                                  .fraction = 0.9,
                                  .duration = 120.0});
  return config;
}

/// One must-agree group: every (label, fingerprint) cell must match the
/// first. Records divergences into `result`.
class AgreementGroup {
 public:
  AgreementGroup(AuditResult& result, std::ostream& log, std::string name)
      : result_(result),
        log_(log),
        name_(std::move(name)),
        divergences_before_(result.divergences.size()) {
    ++result_.groups;
  }

  void cell(const std::string& label, std::uint64_t fingerprint) {
    ++cells_;
    if (cells_ == 1) {
      reference_ = fingerprint;
      reference_label_ = label;
      return;
    }
    if (fingerprint != reference_) {
      result_.divergences.push_back(
          name_ + ": " + label + " diverged from " + reference_label_);
    }
  }

  void failure(const std::string& label, const std::string& what) {
    result_.divergences.push_back(name_ + ": " + label + " failed: " + what);
  }

  ~AgreementGroup() {
    const std::size_t diverged =
        result_.divergences.size() - divergences_before_;
    log_ << "  " << name_ << ": " << cells_ << " cell(s), ";
    if (diverged == 0) {
      // The agreed fingerprint is part of the log so two *builds* can be
      // cross-checked by diffing their audit logs — the in-process matrix
      // only proves agreement within one binary.
      log_ << "all agree, fingerprint 0x" << std::hex << reference_
           << std::dec << "\n";
    } else {
      log_ << diverged << " DIVERGENCE(S)\n";
    }
  }

 private:
  AuditResult& result_;
  std::ostream& log_;
  std::string name_;
  std::size_t divergences_before_;
  std::size_t cells_ = 0;
  std::uint64_t reference_ = 0;
  std::string reference_label_;
};

/// Runs the full queue x threads x kill matrix for one base campaign.
/// `tag` labels the agreement groups and keys the scratch journal names
/// so multiple bases can share one scratch directory.
void audit_matrix(const AuditOptions& options, const RuntimeConfig& base,
                  const std::string& tag, AuditResult& result,
                  std::ostream& log) {
  for (const std::int64_t shards : options.shard_counts) {
    AgreementGroup group(result, log,
                         tag + " shards=" + std::to_string(shards));

    // Per-shard uninterrupted runs, executed sequentially on this thread:
    // the scheduling-free reference, and the source of each shard's event
    // count for placing kill points.
    RuntimeConfig reference_base = base;
    reference_base.queue = options.queue_kinds.front();
    const ShardedSupervisor reference_sharded(reference_base, shards);
    std::vector<RuntimeReport> shard_reports;
    std::vector<std::int64_t> shard_events;
    shard_reports.reserve(reference_sharded.shard_configs().size());
    for (const RuntimeConfig& shard : reference_sharded.shard_configs()) {
      shard_reports.push_back(run_async_campaign(shard));
      shard_events.push_back(shard_reports.back().events_processed);
      ++result.runs;
    }
    group.cell("sequential reference",
               report_fingerprint(ShardedSupervisor::merge(shard_reports)));

    // Queue kind x pool size: the merged report may depend on neither.
    for (const QueueKind queue : options.queue_kinds) {
      RuntimeConfig config = base;
      config.queue = queue;
      const ShardedSupervisor sharded(config, shards);
      for (const std::size_t threads : options.thread_counts) {
        parallel::ThreadPool pool(threads);
        const RuntimeReport merged = sharded.run(pool);
        ++result.runs;
        group.cell(std::string("queue=") + queue_name(queue) +
                       " threads=" + std::to_string(threads),
                   report_fingerprint(merged));
      }
    }

    // Kill/resume: killing each shard's supervisor mid-campaign and
    // resuming from its journal must reproduce the uninterrupted bytes.
    for (const QueueKind queue : options.queue_kinds) {
      RuntimeConfig config = base;
      config.queue = queue;
      const ShardedSupervisor sharded(config, shards);
      for (const double fraction : options.kill_fractions) {
        const std::string label = std::string("queue=") + queue_name(queue) +
                                  " kill=" + std::to_string(fraction);
        std::vector<RuntimeReport> resumed;
        resumed.reserve(sharded.shard_configs().size());
        bool leg_failed = false;
        for (std::size_t s = 0;
             s < sharded.shard_configs().size() && !leg_failed; ++s) {
          RuntimeConfig shard = sharded.shard_configs()[s];
          shard.journal.path = options.scratch_dir + "/audit-" + tag + "-s" +
                               std::to_string(shards) + "-q" +
                               queue_name(queue) + "-f" +
                               std::to_string(fraction) + "-shard" +
                               std::to_string(s) + ".journal";
          // Digest often enough that resume verifies several recorded
          // boundaries before the kill point.
          shard.journal.checkpoint_interval =
              std::max<std::int64_t>(shard_events[s] / 7, 16);
          const std::int64_t kill_at = std::max<std::int64_t>(
              1, static_cast<std::int64_t>(
                     static_cast<double>(shard_events[s]) * fraction));
          try {
            auto capped = run_async_campaign_capped(shard, kill_at);
            ++result.runs;
            if (capped.has_value()) {
              // Campaign finished before the kill point (tiny shard);
              // the report still belongs in the agreement group.
              resumed.push_back(std::move(*capped));
            } else {
              resumed.push_back(resume_async_campaign(shard));
              ++result.runs;
            }
          } catch (const std::exception& error) {
            group.failure(label + " shard=" + std::to_string(s),
                          error.what());
            leg_failed = true;
          }
        }
        if (!leg_failed) {
          group.cell(label,
                     report_fingerprint(ShardedSupervisor::merge(resumed)));
        }
      }
    }

    // Lost journal: run the fleet journaled, delete one shard's journal
    // file outright, and resume the whole fleet. The lost shard must
    // come back bit-identically by re-running from its seed; the
    // survivors resume from their own journals.
    if (shards >= 2) {
      RuntimeConfig config = base;
      config.queue = options.queue_kinds.front();
      config.journal.path = options.scratch_dir + "/audit-" + tag + "-s" +
                            std::to_string(shards) + "-lost.journal";
      std::int64_t min_events = shard_events.front();
      for (const std::int64_t events : shard_events) {
        min_events = std::min(min_events, events);
      }
      // Digest inside even the smallest shard, so every surviving
      // journal has records to verify.
      config.journal.checkpoint_interval =
          std::max<std::int64_t>(min_events / 5, 16);
      const ShardedSupervisor journaled(config, shards);
      try {
        parallel::ThreadPool pool(options.thread_counts.front());
        const RuntimeReport full = journaled.run(pool);
        result.runs += static_cast<std::size_t>(journaled.shard_count());
        group.cell("lost-journal run", report_fingerprint(full));
        std::filesystem::remove(
            journaled.shard_configs().front().journal.path);
        const RuntimeReport recovered = journaled.resume(pool);
        result.runs += static_cast<std::size_t>(journaled.shard_count());
        group.cell("lost-journal resume", report_fingerprint(recovered));
      } catch (const std::exception& error) {
        group.failure("lost-journal", error.what());
      }
    }
  }
}

}  // namespace

AuditResult run_determinism_audit(const AuditOptions& requested,
                                  std::ostream& log) {
  AuditResult result;
  AuditOptions options = requested;
  const bool own_scratch = options.scratch_dir.empty();
  if (own_scratch) {
    options.scratch_dir = make_scratch_dir();
  } else {
    std::filesystem::create_directories(options.scratch_dir);
  }

  log << "determinism audit: " << options.queue_kinds.size()
      << " queue kind(s) x " << options.shard_counts.size()
      << " shard count(s) x " << options.thread_counts.size()
      << " pool size(s) x " << options.kill_fractions.size()
      << " kill point(s)"
      << (options.include_adaptive ? " x {static, adaptive}" : "")
      << ", seed 0x" << std::hex << options.seed << std::dec << "\n";

  audit_matrix(options, base_config(options), "static", result, log);
  if (options.include_adaptive) {
    audit_matrix(options, adaptive_config(options), "adaptive", result, log);
  }

  result.passed = result.divergences.empty();
  for (const std::string& divergence : result.divergences) {
    log << "  DIVERGENCE " << divergence << "\n";
  }
  log << "determinism audit: " << result.runs << " campaign run(s), "
      << result.groups << " agreement group(s), "
      << (result.passed ? "all agree" : "DIVERGENCE DETECTED") << "\n";
  if (own_scratch) {
    if (result.passed) {
      std::filesystem::remove_all(options.scratch_dir);
    } else {
      log << "determinism audit: scratch journals kept in "
          << options.scratch_dir << "\n";
    }
  }
  return result;
}

}  // namespace redund::runtime
