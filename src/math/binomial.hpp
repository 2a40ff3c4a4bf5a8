// Binomial coefficients and related combinatorics, in both the linear and the
// log domain.
//
// The detection-probability engine evaluates sums of the form
//   sum_{i > k} C(i, k) * x_i
// (paper, Section 2.2) where i can reach a few hundred for extreme parameter
// values (N = 1e7, epsilon = 0.99). C(i, k) overflows double for i beyond
// ~1030 and loses precision well before that when computed by naive repeated
// multiplication, so the library computes log C(i, k) via log-gamma and
// exponentiates only ratios that are known to be representable.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>

namespace redund::math {

/// ln|Gamma(x)|, the value std::lgamma returns. std::lgamma also stores the
/// sign of Gamma(x) in the global `signgam`, a data race when pool workers
/// call it concurrently; lgamma_r returns the sign through a local instead.
[[nodiscard]] inline double log_gamma(double x) noexcept {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// ln(n!) for n >= 0, bit-identical to log_gamma(static_cast<double>(n) + 1.0).
/// Below 2^16 the value is read from a table of exactly those doubles, built
/// on first use (512 KB; a process that never calls this never builds it);
/// above, it calls log_gamma. The hypergeometric sampler spends most of its
/// time here.
///
/// Not log_factorial: for n <= 22 that returns std::log of the exact
/// factorial, which differs from log_gamma in the last bits, and the
/// sampler's draws are pinned to log_gamma's values.
[[nodiscard]] double log_gamma_int(std::int64_t n) noexcept;

/// Natural log of the binomial coefficient C(n, k).
///
/// Preconditions: n >= 0, k >= 0. Returns -infinity when k > n (the
/// coefficient is zero), 0.0 when k == 0 or k == n.
[[nodiscard]] double log_binomial(std::int64_t n, std::int64_t k) noexcept;

/// Binomial coefficient C(n, k) as a double.
///
/// Exact for results below 2^53 (computed by the multiplicative formula with
/// division interleaved to stay integral); falls back to exp(log_binomial)
/// for larger values, accurate to ~1e-12 relative error. Returns 0 when
/// k > n or either argument is negative.
[[nodiscard]] double binomial(std::int64_t n, std::int64_t k) noexcept;

/// Exact binomial coefficient in unsigned 64-bit arithmetic.
///
/// Returns std::nullopt if the true value would overflow uint64_t, or when
/// k > n / arguments are negative. Used by tests as an oracle for binomial().
[[nodiscard]] std::optional<std::uint64_t> binomial_exact(std::int64_t n,
                                                          std::int64_t k) noexcept;

/// Natural log of n! (n >= 0).
[[nodiscard]] double log_factorial(std::int64_t n) noexcept;

/// n! as a double; exact through n = 22, log_gamma-based beyond.
[[nodiscard]] double factorial(std::int64_t n) noexcept;

}  // namespace redund::math
