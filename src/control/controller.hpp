// Campaign-level adaptive controller: estimators + re-plan cadence.
//
// One CampaignController lives inside each supervisor Runner (and thus
// one per shard under ShardedSupervisor — shard merge needs no special
// controller handling because each shard's controller only ever sees
// its own shard's outcomes). The supervisor feeds it validator verdicts
// and issue outcomes as they happen; on a periodic kReplan event it
// asks `due()` whether enough new completions and observations have
// accumulated, then runs plan_remaining over the residual mix.
//
// Determinism rules (docs/control.md): the controller owns no RNG and
// never reads the clock, and its inputs arrive in event order, so a
// killed-and-resumed campaign (re-run from its seed) replays identical
// re-plan decisions.
#pragma once

#include <cstdint>

#include "control/estimator.hpp"
#include "control/replanner.hpp"

namespace redund::control {

/// Configuration of the online adaptive controller (all-default =
/// disabled; every field participates in the runtime config
/// fingerprint). The estimator's Beta(1, 19) prior (mean 0.05) and the
/// dropout EWMA's alpha = 0.05 are the constants
/// AdversaryEstimator::kPriorAlpha/kPriorBeta and RateEwma::kAlpha; the
/// 256/64 promotion/release caps per round are ReplanBudgets' defaults.
struct ControlConfig {
  /// Posterior upper credible limit the re-planner evaluates at.
  static constexpr double kQuantile = 0.95;
  /// Controller-added copies allowed per task (its slot-table budget,
  /// on top of AdaptiveConfig::kMaxExtraReplicas).
  static constexpr std::int64_t kMaxBoost = 2;
  /// Fleet-health gate on de-escalation: releases are suppressed while
  /// the smoothed timeout rate exceeds this ceiling (an unresponsive
  /// fleet needs its spare copies).
  static constexpr double kReleaseDropoutCeiling = 0.25;

  bool enabled = false;
  /// Required non-asymptotic detection level min_k P_{k,p} for the
  /// remaining work.
  double epsilon = 0.5;
  /// Completed units between re-plan evaluations (the cadence).
  std::int64_t replan_interval = 64;
  /// kReplan timer period in simulated time. <= 0 selects half the
  /// effective deadline (same auto rule as the adaptive check).
  double check_interval = 0.0;
  /// Observations required before the first re-plan may act.
  std::int64_t min_observations = 32;
};

/// Throws std::invalid_argument when any field is out of range.
void validate(const ControlConfig& config);

class CampaignController {
 public:
  CampaignController() = default;  ///< Disabled shell (never consulted).
  explicit CampaignController(const ControlConfig& config);

  // ------------------------------------------------------------- evidence
  /// One validator/ringer verdict on a completed copy.
  void observe_outcome(bool wrong);
  /// One resolved issue: timed out (true) or completed (false).
  void observe_issue(bool timed_out) noexcept { dropout_.observe(timed_out); }

  // -------------------------------------------------------------- cadence
  /// Enough new completions since the last re-plan, and enough total
  /// observations to trust the posterior?
  [[nodiscard]] bool due(std::int64_t units_completed) const noexcept;
  void mark_replanned(std::int64_t units_completed) noexcept {
    last_replan_completed_ = units_completed;
  }

  // ------------------------------------------------------------- decision
  /// Budgets for the current round: epsilon from the config, the default
  /// step caps, and releases gated on the dropout EWMA.
  [[nodiscard]] ReplanBudgets budgets(bool top_verified) const noexcept;
  [[nodiscard]] double p_upper() const {
    return estimator_.upper_credible(ControlConfig::kQuantile);
  }
  [[nodiscard]] double p_mean() const noexcept {
    return estimator_.posterior_mean();
  }

  // ---------------------------------------------------------------- state
  [[nodiscard]] const AdversaryEstimator& estimator() const noexcept {
    return estimator_;
  }
  /// Independent tally of observe_outcome calls — the conservation
  /// invariant cross-checks it against the posterior's counts.
  [[nodiscard]] std::int64_t observations() const noexcept {
    return observations_;
  }
 private:
  ControlConfig config_;
  AdversaryEstimator estimator_;
  RateEwma dropout_;
  std::int64_t observations_ = 0;
  std::int64_t last_replan_completed_ = 0;
};

}  // namespace redund::control
