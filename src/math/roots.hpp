// Scalar root finding (Brent's method).
//
// Used by the planner facade to invert monotone relationships the paper
// states in closed form only one way — e.g. finding the detection level
// epsilon achievable with a given assignment budget (inverting the Balanced
// redundancy factor ln(1/(1-eps))/eps), or the Golle-Stubblebine parameter c
// from a non-asymptotic constraint.
#pragma once

#include <functional>
#include <optional>

namespace redund::math {

/// Result of a root search.
struct RootResult {
  double x = 0.0;          ///< Best estimate of the root.
  bool converged = false;  ///< True when a tolerance was met within budget.
};

/// Brent's method on [lo, hi]: inverse-quadratic / secant steps with a
/// bisection safety net; superlinear on smooth functions, never worse than
/// bisection. Requires f(lo) and f(hi) to have opposite signs (a zero
/// endpoint counts); returns std::nullopt when the bracket is invalid.
/// Stops at an exact zero or once the bracket is at most 1e-12 wide, after
/// at most 200 steps.
[[nodiscard]] std::optional<RootResult> brent(
    const std::function<double(double)>& f, double lo, double hi);

}  // namespace redund::math
