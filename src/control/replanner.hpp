// Residual-mix re-planner: the decision core of the adaptive controller.
//
// Mid-campaign, the unfinished tasks form a *residual* redundancy
// distribution — x_k unfinished tasks currently targeting k copies. The
// re-planner evaluates the paper's Section 5 non-asymptotic detection
// level min_k P_{k,p} of that mix at the posterior's upper credible
// limit p and steers it toward the cheapest mix still meeting
// P_k >= epsilon:
//
//   * too weak  -> promote tasks out of the weakest class k (one more
//     copy each) until the level clears epsilon or the promotion budget
//     / candidate supply runs out;
//   * comfortably strong and the fleet is healthy -> release previously
//     escalated copies, most-expensive class first, re-checking the
//     bound after every single release so the mix never drops below the
//     feasible minimum.
//
// This is the probe-and-observe shape of MongoDB's throughput-probing
// controller: move one small deterministic step, measure the governing
// metric, keep or revert. plan_remaining is a pure function — no RNG,
// no clock, no supervisor state — which is what lets per-shard
// controllers stay byte-identical under resume and shard merge.
#pragma once

#include <cstdint>
#include <vector>

namespace redund::control {

/// One multiplicity class of the unfinished work.
struct ResidualClass {
  std::int64_t multiplicity = 0;  ///< Current per-task copy target (>= 1).
  std::int64_t tasks = 0;         ///< Unfinished tasks at this target.
  /// How many of those tasks may take one more copy this round (caller
  /// policy: non-ringers with boost budget and an assignable identity).
  std::int64_t promotable = 0;
  /// How many may give one copy back this round (caller policy:
  /// previously boosted tasks with an outstanding, cancellable copy).
  /// A task may be eligible both ways — the caller applies each decided
  /// move to a distinct task, so the counts are independent, each within
  /// [0, tasks].
  std::int64_t demotable = 0;
};

/// Caps and targets for one re-plan round.
struct ReplanBudgets {
  /// Escalation and de-escalation step bounds per round.
  static constexpr std::int64_t kMaxPromotions = 256;
  static constexpr std::int64_t kMaxReleases = 64;

  double epsilon = 0.5;  ///< Required min_k P_{k,p}.
  bool allow_release = true;
  /// True when the residual top class is supervisor-verified (ringers):
  /// the top tuple is then not an attack surface, matching the planner's
  /// include_top convention.
  bool top_verified = true;
};

/// `count` tasks of class `multiplicity` move one copy up (promotions)
/// or down (demotions).
struct ClassDelta {
  std::int64_t multiplicity = 0;
  std::int64_t count = 0;
};

struct ReplanDecision {
  double detection_before = 0.0;  ///< min_k P_{k,p} of the input mix.
  double detection_after = 0.0;   ///< Same, after applying the deltas.
  bool feasible = false;          ///< detection_after >= epsilon.
  std::vector<ClassDelta> promotions;  ///< Keyed by *original* class.
  std::vector<ClassDelta> demotions;   ///< Keyed by *original* class.

  [[nodiscard]] std::int64_t promoted() const noexcept;
  [[nodiscard]] std::int64_t released() const noexcept;
  [[nodiscard]] bool empty() const noexcept {
    return promotions.empty() && demotions.empty();
  }
};

/// Plans one round of promotions/demotions over the residual mix at
/// adversary proportion `p_upper`. Pure and deterministic; every task
/// moves at most one step per round (multi-step escalation happens
/// across successive rounds, each re-anchored on fresh observations).
/// Throws std::invalid_argument on malformed classes, an out-of-range
/// p_upper or an out-of-range budgets.epsilon.
[[nodiscard]] ReplanDecision plan_remaining(
    const std::vector<ResidualClass>& classes, double p_upper,
    const ReplanBudgets& budgets);

}  // namespace redund::control
