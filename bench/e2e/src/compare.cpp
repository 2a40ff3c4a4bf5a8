// `redund_e2e compare BASE.json... -- NEW.json...`:
// judges a change against its parent from two sets of e2e.json files,
// by the rule of the choosing-metrics guide, section 8. Files are paired
// in the order given (the A/B protocol alternates parent and change, so
// pair i is the i-th run of each).
//
// Per (workload, metric) with a bound (BENCHMARK.json's end_to_end list,
// plus the workload-specific metrics, see load_bounds):
//   improved    the change wins >= 9/10 of the pairs (ties count for
//               neither) and the medians differ by more than the parent's
//               interquartile distance, in the better direction;
//   unresolved  otherwise, when the parent's own spread (IQR / median)
//               is wider than the bound, unless every change run reads
//               better than every parent run;
//   regressed   otherwise, when the change's median is worse than the
//               parent's by more than the bound;
//   unchanged   otherwise.
// Metrics without a bound are listed with their medians only. The exit
// status is 1 when any metric regressed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "e2e.hpp"

namespace redund::e2e {

namespace {

struct Bound {
  std::string unit;
  bool lower_is_better = true;
  double bound = 0.0;
};

/// BENCHMARK.json's end_to_end list, plus the metrics it does not gate:
/// the workload-specific ones (every metric there must exist on every
/// workload), whose simulated values and failed_share must match exactly,
/// and the two tail or partial timings, which get op_s_p50's bound.
std::map<std::string, Bound> load_bounds(const std::string& path) {
  const Json root = read_json_file(path);
  std::map<std::string, Bound> bounds = {
      {"makespan_sim", {"sim-time", true, 0.0}},
      {"detection_rate", {"ratio", false, 0.0}},
      {"journal_bytes_per_event", {"B", true, 0.0}},
      {"failed_share", {"ratio", true, 0.0}},
  };
  const Json* list = root.find("end_to_end");
  if (list == nullptr || list->kind != Json::Kind::kArray) {
    throw std::runtime_error(path + ": no end_to_end list");
  }
  for (const Json& entry : list->items) {
    const Json* name = entry.find("name");
    const Json* better = entry.find("better");
    const Json* bound = entry.find("bound");
    const Json* unit = entry.find("unit");
    if (name == nullptr || better == nullptr || bound == nullptr) {
      throw std::runtime_error(path + ": end_to_end entry lacks name/better/bound");
    }
    bounds[name->string] = {unit != nullptr ? unit->string : "",
                            better->string != "higher", bound->number};
  }
  if (const auto op = bounds.find("op_s_p50"); op != bounds.end()) {
    bounds["op_s_p80"] = op->second;
    bounds["resume_s_p50"] = op->second;
  }
  return bounds;
}

/// (workload, metric) -> value per file, from one side's e2e.json files.
using Samples = std::map<std::pair<std::string, std::string>, std::vector<double>>;

Samples load_side(const std::vector<std::string>& paths) {
  Samples samples;
  for (const std::string& path : paths) {
    const Json root = read_json_file(path);
    const Json* workloads = root.find("workloads");
    if (workloads == nullptr || workloads->kind != Json::Kind::kObject) {
      throw std::runtime_error(path + ": not a redund_e2e --out file");
    }
    for (const auto& [workload, body] : workloads->members) {
      const Json* metrics = body.find("metrics");
      if (metrics == nullptr) continue;
      for (const auto& [metric, entry] : metrics->members) {
        if (const Json* value = entry.find("value")) {
          samples[{workload, metric}].push_back(value->number);
        }
      }
    }
  }
  return samples;
}

std::string summary(const std::vector<double>& values) {
  char buf[96];
  if (values.size() >= 2) {
    const auto [q1, q3] = quartiles(values);
    std::snprintf(buf, sizeof buf, "%.6g [%.6g, %.6g]", median(values), q1, q3);
  } else {
    std::snprintf(buf, sizeof buf, "%.6g", median(values));
  }
  return buf;
}

}  // namespace

int run_compare(const std::vector<std::string>& args) {
  std::vector<std::string> base_paths;
  std::vector<std::string> new_paths;
  bool after_separator = false;
  for (const std::string& arg : args) {
    if (arg == "--") {
      after_separator = true;
    } else {
      (after_separator ? new_paths : base_paths).push_back(arg);
    }
  }
  if (base_paths.empty() || new_paths.empty()) {
    throw std::invalid_argument(
        "usage: redund_e2e compare BASE.json... -- NEW.json...");
  }
  const std::map<std::string, Bound> bounds =
      load_bounds(std::string(REDUND_E2E_SOURCE_DIR) + "/../../BENCHMARK.json");
  const Samples base = load_side(base_paths);
  const Samples change = load_side(new_paths);

  std::printf("%-16s %-26s %-9s %-36s %-36s %-9s %s\n", "workload", "metric",
              "unit", "parent p50 [q1, q3]", "change p50 [q1, q3]", "won",
              "verdict");
  int regressions = 0;
  for (const auto& [key, parent] : base) {
    const auto it = change.find(key);
    if (it == change.end()) continue;
    const std::vector<double>& child = it->second;
    const auto bound_it = bounds.find(key.second);
    const bool bounded = bound_it != bounds.end();
    const bool lower = bounded ? bound_it->second.lower_is_better : true;
    const auto better = [lower](double a, double b) {
      return lower ? a < b : a > b;
    };

    const std::size_t pairs = std::min(parent.size(), child.size());
    std::size_t wins = 0;
    for (std::size_t i = 0; i < pairs; ++i) wins += better(child[i], parent[i]);
    const double med_parent = median(parent);
    const double med_child = median(child);
    double spread = 0.0;
    if (parent.size() >= 2) {
      const auto [q1, q3] = quartiles(parent);
      spread = q3 - q1;
    }
    const double base_mag = std::max(std::abs(med_parent), 1e-300);
    const double worse_by =
        (lower ? med_child - med_parent : med_parent - med_child) / base_mag;
    bool all_better = true;
    for (const double c : child) {
      for (const double p : parent) all_better &= better(c, p);
    }

    std::string verdict = "unbounded";
    if (bounded) {
      const double bound = bound_it->second.bound;
      if (better(med_child, med_parent) &&
          10 * wins >= 9 * pairs && std::abs(med_child - med_parent) > spread) {
        verdict = "improved";
      } else if (spread / base_mag > bound && !all_better) {
        verdict = "unresolved";
      } else if (worse_by > bound) {
        verdict = "regressed";
        ++regressions;
      } else {
        verdict = "unchanged";
      }
    }
    char won[24];
    std::snprintf(won, sizeof won, "%zu/%zu", wins, pairs);
    std::printf("%-16s %-26s %-9s %-36s %-36s %-9s %s\n", key.first.c_str(),
                key.second.c_str(),
                bounded ? bound_it->second.unit.c_str() : "-",
                summary(parent).c_str(), summary(child).c_str(), won,
                verdict.c_str());
  }
  return regressions > 0 ? 1 : 0;
}

}  // namespace redund::e2e
