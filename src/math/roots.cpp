#include "math/roots.hpp"

#include <cmath>
#include <utility>

namespace redund::math {

namespace {

constexpr double kXTolerance = 1e-12;  ///< Stop at a bracket this narrow.
constexpr int kMaxIterations = 200;    ///< Cap on function evaluations.

bool brackets_root(double f_lo, double f_hi) noexcept {
  return (f_lo <= 0.0 && f_hi >= 0.0) || (f_lo >= 0.0 && f_hi <= 0.0);
}

}  // namespace

std::optional<RootResult> brent(const std::function<double(double)>& f,
                                double lo, double hi) {
  double a = lo;
  double b = hi;
  double fa = f(a);
  double fb = f(b);
  if (!brackets_root(fa, fb)) return std::nullopt;
  if (std::abs(fa) < std::abs(fb)) {
    std::swap(a, b);
    std::swap(fa, fb);
  }
  double c = a;          // Previous iterate.
  double fc = fa;
  double d = b - a;      // Step taken two iterations ago (for safeguards).
  bool used_bisection = true;

  RootResult result;
  for (int iteration = 0; iteration < kMaxIterations; ++iteration) {
    result.x = b;
    if (fb == 0.0 || std::abs(b - a) <= kXTolerance) {
      result.converged = true;
      return result;
    }

    double s;
    if (fa != fc && fb != fc) {
      // Inverse quadratic interpolation.
      s = a * fb * fc / ((fa - fb) * (fa - fc)) +
          b * fa * fc / ((fb - fa) * (fb - fc)) +
          c * fa * fb / ((fc - fa) * (fc - fb));
    } else {
      // Secant step.
      s = b - fb * (b - a) / (fb - fa);
    }

    const double mid = 0.5 * (a + b);
    const bool s_outside = (s < std::min(mid, b) || s > std::max(mid, b));
    const bool step_too_small =
        (used_bisection && std::abs(s - b) >= 0.5 * std::abs(b - c)) ||
        (!used_bisection && std::abs(s - b) >= 0.5 * std::abs(d));
    if (s_outside || step_too_small) {
      s = mid;
      used_bisection = true;
    } else {
      used_bisection = false;
    }

    const double fs = f(s);
    d = c - b;
    c = b;
    fc = fb;
    if (brackets_root(fa, fs)) {
      b = s;
      fb = fs;
    } else {
      a = s;
      fa = fs;
    }
    if (std::abs(fa) < std::abs(fb)) {
      std::swap(a, b);
      std::swap(fa, fb);
    }
  }
  return result;
}

}  // namespace redund::math
