#include "control/controller.hpp"

#include <cmath>
#include <stdexcept>

namespace redund::control {

void validate(const ControlConfig& config) {
  if (!(config.epsilon >= 0.0) || !(config.epsilon <= 1.0)) {
    throw std::invalid_argument("ControlConfig: epsilon must be in [0, 1]");
  }
  if (!(config.quantile > 0.0) || !(config.quantile < 1.0)) {
    throw std::invalid_argument("ControlConfig: quantile must be in (0, 1)");
  }
  if (config.replan_interval < 1) {
    throw std::invalid_argument(
        "ControlConfig: replan_interval must be >= 1");
  }
  if (!std::isfinite(config.check_interval)) {
    throw std::invalid_argument(
        "ControlConfig: check_interval must be finite");
  }
  if (config.max_boost < 0) {
    throw std::invalid_argument("ControlConfig: max_boost must be >= 0");
  }
  if (!(config.prior_alpha > 0.0) || !(config.prior_beta > 0.0) ||
      !std::isfinite(config.prior_alpha) ||
      !std::isfinite(config.prior_beta)) {
    throw std::invalid_argument(
        "ControlConfig: prior pseudo-counts must be positive and finite");
  }
  if (config.min_observations < 0 || config.max_promotions < 0 ||
      config.max_releases < 0) {
    throw std::invalid_argument(
        "ControlConfig: counts and budgets must be >= 0");
  }
  if (!(config.release_dropout_ceiling >= 0.0) ||
      !(config.release_dropout_ceiling <= 1.0)) {
    throw std::invalid_argument(
        "ControlConfig: release_dropout_ceiling must be in [0, 1]");
  }
  if (!(config.dropout_ewma_alpha > 0.0) ||
      config.dropout_ewma_alpha > 1.0) {
    throw std::invalid_argument(
        "ControlConfig: dropout_ewma_alpha must be in (0, 1]");
  }
}

CampaignController::CampaignController(const ControlConfig& config)
    : config_(config),
      estimator_(config.prior_alpha, config.prior_beta),
      dropout_(config.dropout_ewma_alpha) {
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
  budgets.max_promotions = config_.max_promotions;
  budgets.max_releases = config_.max_releases;
  budgets.allow_release =
      config_.allow_release &&
      (!dropout_.initialized() ||
       dropout_.value() <= config_.release_dropout_ceiling);
  budgets.top_verified = top_verified;
  return budgets;
}

}  // namespace redund::control
