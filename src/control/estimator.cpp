#include "control/estimator.hpp"

#include <cmath>
#include <stdexcept>

#include "math/binomial.hpp"

namespace redund::control {

namespace {

/// Continued-fraction core of the incomplete beta function (Lentz's
/// method with the standard tiny-denominator guard). Converges in a few
/// dozen iterations for the posterior shapes we feed it; the iteration
/// cap only bounds pathological inputs.
double beta_continued_fraction(double x, double a, double b) noexcept {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  constexpr int kMaxIterations = 400;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::fabs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double dm = static_cast<double>(m);
    const double m2 = 2.0 * dm;
    // Even step.
    double aa = dm * (b - dm) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    // Odd step.
    aa = -(a + dm) * (qab + dm) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEps) break;
  }
  return h;
}

}  // namespace

double beta_cdf(double x, double a, double b) noexcept {
  if (!(a > 0.0) || !(b > 0.0)) return 0.0;
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_front = math::log_gamma(a + b) - math::log_gamma(a) -
                           math::log_gamma(b) + a * std::log(x) +
                           b * std::log1p(-x);
  const double front = std::exp(log_front);
  // The continued fraction converges fastest for x < (a+1)/(a+b+2); use
  // the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) on the far side.
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(x, a, b) / a;
  }
  return 1.0 - front * beta_continued_fraction(1.0 - x, b, a) / b;
}

void AdversaryEstimator::observe(std::int64_t wrong, std::int64_t right) {
  if (wrong < 0 || right < 0) {
    throw std::invalid_argument(
        "AdversaryEstimator::observe: counts must be >= 0");
  }
  wrong_ += wrong;
  right_ += right;
}

double AdversaryEstimator::posterior_mean() const noexcept {
  const double alpha = kPriorAlpha + static_cast<double>(wrong_);
  const double beta = kPriorBeta + static_cast<double>(right_);
  return alpha / (alpha + beta);
}

double AdversaryEstimator::upper_credible(double quantile) const {
  if (!(quantile > 0.0) || !(quantile < 1.0)) {
    throw std::invalid_argument(
        "AdversaryEstimator::upper_credible: quantile must be in (0, 1)");
  }
  const double alpha = kPriorAlpha + static_cast<double>(wrong_);
  const double beta = kPriorBeta + static_cast<double>(right_);
  // Fixed-count bisection: deterministic and branch-stable, and 64
  // halvings of [0, 1] are far below double resolution anyway.
  double lo = 0.0;
  double hi = 1.0;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (beta_cdf(mid, alpha, beta) < quantile) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

void RateEwma::observe(bool hit) noexcept {
  const double sample = hit ? 1.0 : 0.0;
  if (!initialized_) {
    value_ = sample;
    initialized_ = true;
    return;
  }
  value_ = kAlpha * sample + (1.0 - kAlpha) * value_;
}

}  // namespace redund::control
