// Online estimators for the adaptive redundancy controller.
//
// The paper computes its plans from an *assumed* adversary proportion p;
// a live campaign can do better. Every validator verdict is a Bernoulli
// observation of the per-copy wrong-result rate: a completed copy that
// disagrees with the accepted value (or fails a ringer ground-truth
// check) is evidence *for* an active adversary, an agreeing copy is
// evidence against. AdversaryEstimator folds those outcomes into a
// conjugate Beta posterior,
//
//     p | data  ~  Beta(alpha0 + wrong, beta0 + right),
//
// and exposes the posterior mean and an upper credible limit. The
// controller plans against the *upper* limit, not the mean — the same
// pessimism BOINC's scheduler applies when it sizes replication from a
// host-error model (it would rather over-replicate briefly than accept
// corrupt results while the estimate settles).
//
// Everything here is deterministic closed-form arithmetic: the credible
// limit inverts the regularized incomplete beta function with a fixed
// continued-fraction + bisection scheme, so two runs over the same
// outcome stream produce bit-identical estimates. No RNG, no clock.
#pragma once

#include <cstdint>

namespace redund::control {

/// Regularized incomplete beta function I_x(a, b) — the CDF of Beta(a, b)
/// at x — via the Lentz continued-fraction evaluation. a, b > 0,
/// x clamped to [0, 1]. Accurate to ~1e-12 for the posterior shapes the
/// controller produces.
[[nodiscard]] double beta_cdf(double x, double a, double b) noexcept;

/// Conjugate Beta posterior over the per-copy wrong-result probability.
class AdversaryEstimator {
 public:
  /// Prior pseudo-counts alpha0 (wrong results) and beta0 (right
  /// results): the weakly-informative Beta(1, 19) prior, mean 0.05.
  static constexpr double kPriorAlpha = 1.0;
  static constexpr double kPriorBeta = 19.0;

  /// Folds `wrong` disagreeing and `right` agreeing copies into the
  /// posterior. Negative counts are invalid.
  void observe(std::int64_t wrong, std::int64_t right);

  [[nodiscard]] std::int64_t observations() const noexcept {
    return wrong_ + right_;
  }

  /// Posterior mean (alpha0 + wrong) / (alpha0 + beta0 + wrong + right).
  [[nodiscard]] double posterior_mean() const noexcept;

  /// Smallest p with Pr[p_true <= p | data] >= quantile, by bisection on
  /// beta_cdf (64 fixed halvings — deterministic, ~1e-19 interval).
  /// quantile in (0, 1); e.g. 0.95 for the planning-pessimistic limit.
  [[nodiscard]] double upper_credible(double quantile) const;

 private:
  std::int64_t wrong_ = 0;
  std::int64_t right_ = 0;
};

/// EWMA of a Bernoulli event rate — the controller's dropout tracker.
/// Feeding issue outcomes (timed out vs completed) gives a smoothed
/// estimate of the fleet's current no-reply rate, which gates
/// de-escalation: releasing copies is only safe when workers are
/// actually replying.
class RateEwma {
 public:
  /// Smoothing factor: the weight of each new observation.
  static constexpr double kAlpha = 0.05;

  void observe(bool hit) noexcept;

  /// Current smoothed rate; 0 before the first observation.
  [[nodiscard]] double value() const noexcept { return value_; }
  [[nodiscard]] bool initialized() const noexcept { return initialized_; }

 private:
  double value_ = 0.0;
  bool initialized_ = false;
};

}  // namespace redund::control
