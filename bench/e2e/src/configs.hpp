// The configs the workloads hand the library, shared with the layer
// probes so an isolated layer runs at exactly a workload's sizes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/planner.hpp"
#include "runtime/fault.hpp"
#include "runtime/supervisor.hpp"
#include "sim/adversary.hpp"
#include "sim/monte_carlo.hpp"

namespace redund::e2e {

inline constexpr std::int64_t kShards = 8;

/// Tasks and identities of one campaign.
struct Fleet {
  std::int64_t tasks = 0;
  std::int64_t honest = 0;
  std::int64_t sybils = 0;
};

/// `headline`'s fleet: 50,000 tasks, 1,000 honest + 100 sybil identities,
/// each divided by `scale`.
[[nodiscard]] Fleet headline_fleet(std::int64_t scale);
/// `sharded_fleet`'s: kShards headline fleets.
[[nodiscard]] Fleet sharded_fleet(std::int64_t scale);

/// make_plan(Balanced, epsilon 0.5, N = tasks).realized.
[[nodiscard]] core::RealizedPlan balanced_plan(std::int64_t tasks);

/// The plain `redundctl run-async` campaign over `plan`: always-cheat
/// sybils, 15% stragglers slowed 8x, 2% dropouts, speed sigma 0.25,
/// adaptive replication on, controller off, calendar queue.
[[nodiscard]] runtime::RuntimeConfig campaign_config(core::RealizedPlan plan,
                                                     const Fleet& fleet,
                                                     std::uint64_t seed);

/// Turns a campaign config into `churn_adaptive`'s: 10% dropouts, the
/// online controller on, `faults` injected.
void make_churn(runtime::RuntimeConfig& config,
                const runtime::FaultSchedule& faults);

/// Journals a campaign config the way `journal_resume` does.
void make_journaled(runtime::RuntimeConfig& config, const std::string& path);

/// The fault file `churn_adaptive` loads.
[[nodiscard]] std::string churn_faults_path(const std::string& data_dir);

/// One scheme `plan_verify` plans and simulates.
struct VerifyScheme {
  const char* name;
  core::Scheme scheme;
};
inline constexpr VerifyScheme kVerifySchemes[] = {
    {"gs", core::Scheme::kGolleStubblebine},
    {"balanced", core::Scheme::kBalanced},
    {"min_assign", core::Scheme::kMinAssignment},
    {"min_mult", core::Scheme::kMinMultiplicity},
};

/// N = 10^6 / scale, epsilon 0.5, LP dimension 24, multiplicity floor 2.
[[nodiscard]] core::PlanRequest verify_request(core::Scheme scheme,
                                               std::int64_t scale);
/// The p = 0.1 always-cheat adversary `plan_verify` simulates against.
[[nodiscard]] sim::AdversaryConfig verify_adversary();
/// 5,000 / scale replicas on master seed `seed`.
[[nodiscard]] sim::MonteCarloConfig verify_monte_carlo(std::int64_t scale,
                                                       std::uint64_t seed);

/// Pool workers for the parallel workloads: max(1, thread_budget() - 2).
/// With the calling thread, which drains blocks too, an op runs one thread
/// short of min(nproc, 4) on hosts with three or more CPUs. The CPU left
/// over absorbs other tenants of a shared host: on 4 CPUs, ten runs of
/// sharded_fleet on 4 threads spread 21% (interquartile / median) against
/// 7.5% on 3, and plan_verify was no slower on 3.
[[nodiscard]] std::size_t pool_workers();

}  // namespace redund::e2e
