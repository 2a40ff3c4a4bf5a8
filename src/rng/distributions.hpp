// Random variate samplers over the engines in rng/engines.hpp.
//
// std::*_distribution implementations differ across standard libraries, which
// would make "bit-reproducible across toolchains" impossible; these samplers
// are self-contained and fully specified. Each takes the engine by reference
// as its last parameter (engines are cheap but stateful; see CP.31 — the
// state must be shared, everything else is passed by value).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "math/binomial.hpp"
#include "rng/engines.hpp"

namespace redund::rng {

/// Uniform double in [0, 1): fills the 53-bit mantissa from the top bits of
/// one 64-bit draw (the canonical xoshiro conversion).
template <typename Engine>
[[nodiscard]] double uniform01(Engine& engine) noexcept {
  return static_cast<double>(engine() >> 11) * 0x1.0p-53;
}

/// Uniform integer in [0, bound) without modulo bias, via Lemire's
/// multiply-shift rejection method. bound must be >= 1.
template <typename Engine>
[[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound, Engine& engine) noexcept {
  // Degenerate but defined: the only value below 1 is 0.
  if (bound <= 1) return 0;
  __extension__ using uint128 = unsigned __int128;
  while (true) {
    const std::uint64_t x = engine();
    const auto product =
        static_cast<uint128>(x) * static_cast<uint128>(bound);
    const auto low = static_cast<std::uint64_t>(product);
    if (low >= bound || low >= (std::uint64_t{0} - bound) % bound) {
      return static_cast<std::uint64_t>(product >> 64);
    }
  }
}

/// Bernoulli(p) draw.
template <typename Engine>
[[nodiscard]] bool bernoulli(double p, Engine& engine) noexcept {
  return uniform01(engine) < p;
}

/// The first uniform01 of make_stream(master_seed, stream): bit-identical
/// to uniform01 on a freshly built stream engine, at about half the cost
/// (see first_draw). For the single-draw keyed coins the async runtime
/// burns per issue and per fault window.
[[nodiscard]] constexpr double first_uniform01(std::uint64_t master_seed,
                                               std::uint64_t stream) noexcept {
  return static_cast<double>(first_draw(master_seed, stream) >> 11) * 0x1.0p-53;
}

/// Bernoulli(p) over the first draw of make_stream(master_seed, stream);
/// bit-identical to bernoulli(p, make_stream(master_seed, stream)).
[[nodiscard]] constexpr bool first_bernoulli(double p,
                                             std::uint64_t master_seed,
                                             std::uint64_t stream) noexcept {
  return first_uniform01(master_seed, stream) < p;
}

/// Standard normal draw (Box-Muller; one of the pair is discarded to keep
/// the sampler stateless).
template <typename Engine>
[[nodiscard]] double standard_normal(Engine& engine) noexcept {
  // Guard against log(0): uniform01 can return exactly 0.
  double u = uniform01(engine);
  while (u <= 0.0) u = uniform01(engine);
  const double v = uniform01(engine);
  constexpr double kTwoPi = 6.283185307179586;
  return std::sqrt(-2.0 * std::log(u)) * std::cos(kTwoPi * v);
}

/// Exponential draw with the given mean (inverse-CDF method).
template <typename Engine>
[[nodiscard]] double exponential(double mean, Engine& engine) noexcept {
  return -mean * std::log1p(-uniform01(engine));
}

/// Lognormal draw with log-scale sigma, normalized to unit *median*
/// (exp(sigma * Z)): the simulator's model of participant speed spread.
template <typename Engine>
[[nodiscard]] double lognormal_unit_median(double sigma, Engine& engine) noexcept {
  return std::exp(sigma * standard_normal(engine));
}

/// Binomial(n, p) sampler.
///
/// Uses BINV (inversion by sequential search) when n*p is small and a
/// normal-approximation rejection fallback is deliberately avoided: for the
/// library's workloads n*min(p,1-p) stays modest, and where it does not we
/// use the waiting-time (geometric) method, which is exact and O(n*p).
template <typename Engine>
[[nodiscard]] std::int64_t binomial(std::int64_t n, double p, Engine& engine) noexcept {
  if (n <= 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const bool flipped = p > 0.5;
  const double q = flipped ? 1.0 - p : p;

  std::int64_t successes = 0;
  if (static_cast<double>(n) * q < 30.0) {
    // BINV: invert the CDF by sequential search from 0.
    const double s = q / (1.0 - q);
    const double base = std::pow(1.0 - q, static_cast<double>(n));
    double pmf = base;
    double cdf = base;
    const double u = uniform01(engine);
    while (cdf < u && successes < n) {
      ++successes;
      pmf *= s * static_cast<double>(n - successes + 1) /
             static_cast<double>(successes);
      cdf += pmf;
    }
  } else {
    // Waiting-time method: count geometric gaps until they exceed n.
    const double log1mq = std::log1p(-q);
    std::int64_t position = 0;
    while (true) {
      const double u = uniform01(engine);
      const auto gap =
          static_cast<std::int64_t>(std::floor(std::log1p(-u) / log1mq)) + 1;
      position += gap;
      if (position > n) break;
      ++successes;
    }
  }
  return flipped ? n - successes : successes;
}

/// Hypergeometric sampler: number of "marked" items in a draw of `sample`
/// items without replacement from a population of `population` items of
/// which `marked` are marked. Exact inversion on the pmf recurrence,
/// expanding outward from the mode — pmf(lo) underflows to zero for large
/// parameters (the class-aggregated simulation kernel draws with
/// marked/sample in the thousands), so a lo-anchored walk would silently
/// degenerate. pmf(mode) never underflows. One uniform per call.
template <typename Engine>
[[nodiscard]] std::int64_t hypergeometric(std::int64_t population, std::int64_t marked,
                                          std::int64_t sample, Engine& engine) noexcept {
  marked = std::clamp<std::int64_t>(marked, 0, population);
  sample = std::clamp<std::int64_t>(sample, 0, population);
  const std::int64_t lo = std::max<std::int64_t>(0, sample + marked - population);
  const std::int64_t hi = std::min(marked, sample);
  if (lo >= hi) return lo;

  // pmf(k+1)/pmf(k) = (marked-k)(sample-k) / ((k+1)(population-marked-sample+k+1)).
  const auto step_ratio = [&](std::int64_t k) noexcept {
    return (static_cast<double>(marked - k) * static_cast<double>(sample - k)) /
           (static_cast<double>(k + 1) *
            static_cast<double>(population - marked - sample + k + 1));
  };
  const auto lchoose = [](std::int64_t n, std::int64_t k) noexcept {
    return math::log_gamma_int(n) - math::log_gamma_int(k) -
           math::log_gamma_int(n - k);
  };
  const std::int64_t mode = std::clamp(
      (sample + 1) * (marked + 1) / (population + 2), lo, hi);
  const double pmf_mode =
      std::exp(lchoose(marked, mode) + lchoose(population - marked, sample - mode) -
               lchoose(population, sample));

  // Two-sided inversion: peel probability mass off alternating sides of the
  // mode until the uniform is exhausted. O(spread) steps — the pmf decays
  // geometrically away from the mode, so this is ~O(sqrt) of the range.
  double u = uniform01(engine);
  if (u <= pmf_mode) return mode;
  u -= pmf_mode;
  double pmf_up = pmf_mode;
  double pmf_down = pmf_mode;
  std::int64_t ku = mode;
  std::int64_t kd = mode;
  while (ku < hi || kd > lo) {
    if (ku < hi) {
      pmf_up *= step_ratio(ku);
      ++ku;
      if (u <= pmf_up) return ku;
      u -= pmf_up;
    }
    if (kd > lo) {
      --kd;
      pmf_down /= step_ratio(kd);
      if (u <= pmf_down) return kd;
      u -= pmf_down;
    }
  }
  // Rounding left a sliver of unclaimed mass; the mode is the safe answer.
  return mode;
}

/// In-place Fisher–Yates shuffle.
template <typename T, typename Engine>
void shuffle(std::span<T> items, Engine& engine) noexcept {
  for (std::size_t i = items.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform_below(i, engine));
    using std::swap;
    swap(items[i - 1], items[j]);
  }
}

/// Samples `k` distinct indices from [0, n) (partial Fisher–Yates on an
/// index vector). Returned in random order.
template <typename Engine>
[[nodiscard]] std::vector<std::uint64_t> sample_without_replacement(
    std::uint64_t n, std::uint64_t k, Engine& engine) {
  k = std::min(k, n);
  std::vector<std::uint64_t> indices(n);
  for (std::uint64_t i = 0; i < n; ++i) indices[i] = i;
  for (std::uint64_t i = 0; i < k; ++i) {
    const std::uint64_t j = i + uniform_below(n - i, engine);
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace redund::rng
