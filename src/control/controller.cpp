#include "control/controller.hpp"

#include <cmath>
#include <stdexcept>

namespace redund::control {

void validate(const ControlConfig& config) {
  if (!(config.epsilon >= 0.0) || !(config.epsilon <= 1.0)) {
    throw std::invalid_argument("ControlConfig: epsilon must be in [0, 1]");
  }
  if (config.replan_interval < 1) {
    throw std::invalid_argument(
        "ControlConfig: replan_interval must be >= 1");
  }
  if (!std::isfinite(config.check_interval)) {
    throw std::invalid_argument(
        "ControlConfig: check_interval must be finite");
  }
  if (config.min_observations < 0) {
    throw std::invalid_argument(
        "ControlConfig: min_observations must be >= 0");
  }
}

CampaignController::CampaignController(const ControlConfig& config)
    : config_(config) {
  validate(config);
}

void CampaignController::observe_outcome(bool wrong) {
  estimator_.observe(wrong ? 1 : 0, wrong ? 0 : 1);
  ++observations_;
}

bool CampaignController::due(std::int64_t units_completed) const noexcept {
  return units_completed - last_replan_completed_ >=
             config_.replan_interval &&
         estimator_.observations() >= config_.min_observations;
}

ReplanBudgets CampaignController::budgets(bool top_verified) const noexcept {
  ReplanBudgets budgets;
  budgets.epsilon = config_.epsilon;
  budgets.allow_release =
      !dropout_.initialized() ||
      dropout_.value() <= ControlConfig::kReleaseDropoutCeiling;
  budgets.top_verified = top_verified;
  return budgets;
}

}  // namespace redund::control
