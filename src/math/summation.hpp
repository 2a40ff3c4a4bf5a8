// Compensated floating-point summation utilities.
//
// The redundancy distributions in this library are infinite series whose terms
// span many orders of magnitude (e.g. the zero-truncated Poisson masses of the
// Balanced distribution, Eq. (2) of the paper). Naive left-to-right summation
// loses the small tail terms that determine detection probabilities for high
// multiplicities, so all series evaluation in redund_math goes through the
// Neumaier accumulator defined here.
#pragma once

#include <cstddef>
#include <cmath>
#include <span>

namespace redund::math {

/// Neumaier (improved Kahan–Babuska) compensated accumulator.
///
/// Maintains a running sum plus a correction term so that the result is
/// accurate to within a few ULPs even when terms of wildly different
/// magnitudes are mixed, or when large terms cancel.
///
/// Usage:
/// ```
/// NeumaierSum acc;
/// for (double t : terms) acc.add(t);
/// double total = acc.value();
/// ```
class NeumaierSum {
 public:
  constexpr NeumaierSum() noexcept = default;

  /// Starts the accumulator at `initial`.
  constexpr explicit NeumaierSum(double initial) noexcept : sum_(initial) {}

  /// Adds one term, updating the compensation.
  constexpr void add(double term) noexcept {
    const double t = sum_ + term;
    if (abs_(sum_) >= abs_(term)) {
      compensation_ += (sum_ - t) + term;
    } else {
      compensation_ += (term - t) + sum_;
    }
    sum_ = t;
  }

  /// Adds every element of `terms`.
  constexpr void add(std::span<const double> terms) noexcept {
    for (const double t : terms) add(t);
  }

  /// The compensated sum of everything added so far.
  [[nodiscard]] constexpr double value() const noexcept {
    return sum_ + compensation_;
  }

  /// Resets the accumulator to zero.
  constexpr void reset() noexcept {
    sum_ = 0.0;
    compensation_ = 0.0;
  }

  constexpr NeumaierSum& operator+=(double term) noexcept {
    add(term);
    return *this;
  }

 private:
  // std::abs is not constexpr until C++23; this is, and is branch-predictable.
  static constexpr double abs_(double x) noexcept { return x < 0.0 ? -x : x; }

  double sum_ = 0.0;
  double compensation_ = 0.0;
};

}  // namespace redund::math
