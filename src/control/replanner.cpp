#include "control/replanner.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/detection.hpp"
#include "core/distribution.hpp"

namespace redund::control {

namespace {

/// min_k P_{k,p} of a counts-by-multiplicity vector (index 0 = class 1).
double residual_level(const std::vector<double>& counts, double p,
                      bool include_top) {
  std::vector<double> trimmed = counts;
  while (!trimmed.empty() && trimmed.back() == 0.0) trimmed.pop_back();
  if (trimmed.empty()) return 1.0;  // Nothing left to attack.
  const core::Distribution mix(std::move(trimmed));
  return core::min_detection(mix, p, include_top);
}

std::int64_t weakest_class(const std::vector<double>& counts, double p,
                           bool include_top) {
  std::vector<double> trimmed = counts;
  while (!trimmed.empty() && trimmed.back() == 0.0) trimmed.pop_back();
  if (trimmed.empty()) return 0;
  const core::Distribution mix(std::move(trimmed));
  return core::weakest_tuple(mix, p, include_top);
}

void record_delta(std::vector<ClassDelta>& deltas, std::int64_t multiplicity) {
  for (ClassDelta& delta : deltas) {
    if (delta.multiplicity == multiplicity) {
      ++delta.count;
      return;
    }
  }
  deltas.push_back({multiplicity, 1});
}

}  // namespace

std::int64_t ReplanDecision::promoted() const noexcept {
  std::int64_t total = 0;
  for (const ClassDelta& delta : promotions) total += delta.count;
  return total;
}

std::int64_t ReplanDecision::released() const noexcept {
  std::int64_t total = 0;
  for (const ClassDelta& delta : demotions) total += delta.count;
  return total;
}

ReplanDecision plan_remaining(const std::vector<ResidualClass>& classes,
                              double p_upper, const ReplanBudgets& budgets) {
  if (!(p_upper >= 0.0) || !(p_upper < 1.0)) {
    throw std::invalid_argument(
        "plan_remaining: p_upper must be in [0, 1)");
  }
  if (!(budgets.epsilon >= 0.0) || !(budgets.epsilon <= 1.0)) {
    throw std::invalid_argument(
        "plan_remaining: epsilon must be in [0, 1]");
  }
  std::int64_t max_multiplicity = 0;
  for (const ResidualClass& cls : classes) {
    if (cls.multiplicity < 1 || cls.tasks < 0 || cls.promotable < 0 ||
        cls.demotable < 0 || cls.promotable > cls.tasks ||
        cls.demotable > cls.tasks) {
      throw std::invalid_argument(
          "plan_remaining: malformed residual class");
    }
    max_multiplicity = std::max(max_multiplicity, cls.multiplicity);
  }

  // Working mix, with one spare slot above the top for promotions out of
  // the current top class. Duplicate class entries fold together.
  const auto dim = static_cast<std::size_t>(max_multiplicity + 1);
  std::vector<double> counts(std::max<std::size_t>(dim, 1), 0.0);
  std::vector<std::int64_t> promotable(counts.size(), 0);
  std::vector<std::int64_t> demotable(counts.size(), 0);
  for (const ResidualClass& cls : classes) {
    const auto i = static_cast<std::size_t>(cls.multiplicity - 1);
    counts[i] += static_cast<double>(cls.tasks);
    promotable[i] += cls.promotable;
    demotable[i] += cls.demotable;
  }

  const bool include_top = !budgets.top_verified;
  ReplanDecision decision;
  decision.detection_before =
      residual_level(counts, p_upper, include_top);
  double level = decision.detection_before;

  // Escalate: promote single tasks out of the weakest class until the
  // bound clears epsilon. Promoted mass lands one class up but is not
  // re-promotable this round, so every task moves at most one step.
  std::int64_t promoted = 0;
  while (level < budgets.epsilon && promoted < ReplanBudgets::kMaxPromotions) {
    const std::int64_t weakest = weakest_class(counts, p_upper, include_top);
    if (weakest < 1) break;  // No attack surface at all.
    // An unverified top class can never be protected by promotion: the
    // promoted task just becomes the new unverified top.
    if (include_top && weakest >= static_cast<std::int64_t>(counts.size())) {
      break;
    }
    // Promoting below the weakest class would feed it; only classes at
    // or above the weakest k raise P_k. Take the lowest such class with
    // promotion candidates left (the cheapest useful step).
    std::size_t from = counts.size();
    for (auto i = static_cast<std::size_t>(weakest - 1); i < counts.size();
         ++i) {
      if (promotable[i] > 0 && counts[i] > 0.0) {
        from = i;
        break;
      }
    }
    if (from >= counts.size()) break;  // Supply exhausted: infeasible.
    if (from + 1 >= counts.size()) {
      counts.push_back(0.0);
      promotable.push_back(0);
      demotable.push_back(0);
    }
    counts[from] -= 1.0;
    counts[from + 1] += 1.0;
    --promotable[from];
    record_delta(decision.promotions,
                 static_cast<std::int64_t>(from + 1));
    ++promoted;
    level = residual_level(counts, p_upper, include_top);
  }

  // De-escalate: give back previously escalated copies, most expensive
  // class first, one at a time, keeping the bound >= epsilon after every
  // step. The first release that would violate it is reverted and ends
  // the round — the mix never crosses the feasible minimum.
  if (budgets.allow_release && level >= budgets.epsilon) {
    std::int64_t released = 0;
    while (released < ReplanBudgets::kMaxReleases) {
      std::size_t from = counts.size();
      for (std::size_t i = counts.size(); i-- > 1;) {
        if (demotable[i] > 0 && counts[i] > 0.0) {
          from = i;
          break;
        }
      }
      if (from >= counts.size()) break;
      counts[from] -= 1.0;
      counts[from - 1] += 1.0;
      const double trial = residual_level(counts, p_upper, include_top);
      if (trial < budgets.epsilon) {
        counts[from] += 1.0;
        counts[from - 1] -= 1.0;
        break;
      }
      --demotable[from];
      level = trial;
      record_delta(decision.demotions,
                   static_cast<std::int64_t>(from + 1));
      ++released;
    }
  }

  decision.detection_after = level;
  decision.feasible = level >= budgets.epsilon;
  return decision;
}

}  // namespace redund::control
