#include "math/binomial.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <vector>

namespace redund::math {

namespace {

// Factorials exact in double (and uint64) through 20!; 21! and 22! are exact
// in double but not uint64.
constexpr std::array<double, 23> kFactorialTable = {
    1.0,
    1.0,
    2.0,
    6.0,
    24.0,
    120.0,
    720.0,
    5040.0,
    40320.0,
    362880.0,
    3628800.0,
    39916800.0,
    479001600.0,
    6227020800.0,
    87178291200.0,
    1307674368000.0,
    20922789888000.0,
    355687428096000.0,
    6402373705728000.0,
    121645100408832000.0,
    2432902008176640000.0,
    51090942171709440000.0,
    1124000727777607680000.0,
};

// log_gamma_int's table covers n < kLogGammaTableSize. On the class kernel
// at N = 10^6 that serves 92-99% of the sampler's calls; the rest are the
// outer deals across classes, whose arguments run to the total assignments.
constexpr std::int64_t kLogGammaTableSize = std::int64_t{1} << 16;

}  // namespace

double log_gamma_int(std::int64_t n) noexcept {
  // Function-local static: built once, on first use, thread-safely.
  static const std::vector<double> table = [] {
    std::vector<double> values(static_cast<std::size_t>(kLogGammaTableSize));
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = log_gamma(static_cast<double>(i) + 1.0);
    }
    return values;
  }();
  if (n < kLogGammaTableSize) return table[static_cast<std::size_t>(n)];
  return log_gamma(static_cast<double>(n) + 1.0);
}

double log_factorial(std::int64_t n) noexcept {
  if (n < 0) return -std::numeric_limits<double>::infinity();
  if (n < static_cast<std::int64_t>(kFactorialTable.size())) {
    return std::log(kFactorialTable[static_cast<std::size_t>(n)]);
  }
  return log_gamma(static_cast<double>(n) + 1.0);
}

double factorial(std::int64_t n) noexcept {
  if (n < 0) return 0.0;
  if (n < static_cast<std::int64_t>(kFactorialTable.size())) {
    return kFactorialTable[static_cast<std::size_t>(n)];
  }
  return std::exp(log_gamma(static_cast<double>(n) + 1.0));
}

double log_binomial(std::int64_t n, std::int64_t k) noexcept {
  if (n < 0 || k < 0 || k > n) {
    return -std::numeric_limits<double>::infinity();
  }
  if (k == 0 || k == n) return 0.0;
  return log_factorial(n) - log_factorial(k) - log_factorial(n - k);
}

std::optional<std::uint64_t> binomial_exact(std::int64_t n, std::int64_t k) noexcept {
  if (n < 0 || k < 0 || k > n) return std::nullopt;
  k = std::min(k, n - k);
  std::uint64_t result = 1;
  // Multiplicative formula: result stays integral after each division because
  // C(n - k + i, i) is integral for every prefix.
  for (std::int64_t i = 1; i <= k; ++i) {
    const auto numerator = static_cast<std::uint64_t>(n - k + i);
    // Overflow check for result * numerator.
    if (result > std::numeric_limits<std::uint64_t>::max() / numerator) {
      return std::nullopt;
    }
    result = result * numerator / static_cast<std::uint64_t>(i);
  }
  return result;
}

double binomial(std::int64_t n, std::int64_t k) noexcept {
  if (n < 0 || k < 0 || k > n) return 0.0;
  if (const auto exact = binomial_exact(n, k); exact.has_value()) {
    return static_cast<double>(*exact);
  }
  return std::exp(log_binomial(n, k));
}

}  // namespace redund::math
