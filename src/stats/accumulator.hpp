// Online statistical accumulators (Welford) and mergeable summaries.
//
// Monte Carlo replicas produce per-replica observations (e.g. "was the
// adversary detected", "how many tasks were fully controlled"). Each worker
// accumulates locally and partial accumulators are merged deterministically
// (Chan et al. parallel update), matching the parallel_reduce_blocks
// contract.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace redund::stats {

/// Welford/Chan online accumulator for mean, variance, min and max.
/// merge() implements the numerically stable pairwise update so accumulators
/// built per-thread combine into exactly the moments of the union.
class Accumulator {
 public:
  constexpr Accumulator() noexcept = default;

  /// Adds one observation.
  constexpr void add(double x) noexcept {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = x < min_ ? x : min_;
    max_ = x > max_ ? x : max_;
  }

  /// Merges another accumulator into this one (Chan parallel variance).
  constexpr void merge(const Accumulator& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const auto n1 = static_cast<double>(count_);
    const auto n2 = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double total = n1 + n2;
    mean_ += delta * n2 / total;
    m2_ += other.m2_ + delta * delta * n1 * n2 / total;
    count_ += other.count_;
    min_ = other.min_ < min_ ? other.min_ : min_;
    max_ = other.max_ > max_ ? other.max_ : max_;
  }

  [[nodiscard]] constexpr std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] constexpr double mean() const noexcept { return mean_; }

  /// Unbiased sample variance; 0 for fewer than two observations.
  [[nodiscard]] constexpr double variance() const noexcept {
    return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
  }

  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }

  /// Standard error of the mean.
  [[nodiscard]] double sem() const noexcept {
    return count_ > 0 ? stddev() / std::sqrt(static_cast<double>(count_)) : 0.0;
  }

  [[nodiscard]] constexpr double min() const noexcept { return min_; }
  [[nodiscard]] constexpr double max() const noexcept { return max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Two-sided confidence interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  [[nodiscard]] constexpr bool contains(double x) const noexcept {
    return lo <= x && x <= hi;
  }
  [[nodiscard]] constexpr double width() const noexcept { return hi - lo; }
};

/// Normal-approximation CI for the mean at z standard errors
/// (z = 1.96 for ~95%, 2.5758 for ~99%, 3.2905 for ~99.9%).
[[nodiscard]] inline Interval mean_confidence(const Accumulator& acc,
                                              double z = 1.96) noexcept {
  const double half = z * acc.sem();
  return {acc.mean() - half, acc.mean() + half};
}

/// Counter for Bernoulli outcomes with convenience accessors.
class BernoulliCounter {
 public:
  constexpr void add(bool success) noexcept {
    ++trials_;
    successes_ += success ? 1u : 0u;
  }

  constexpr void merge(const BernoulliCounter& other) noexcept {
    trials_ += other.trials_;
    successes_ += other.successes_;
  }

  [[nodiscard]] constexpr std::uint64_t trials() const noexcept { return trials_; }
  [[nodiscard]] constexpr std::uint64_t successes() const noexcept { return successes_; }

  [[nodiscard]] constexpr double proportion() const noexcept {
    return trials_ > 0
               ? static_cast<double>(successes_) / static_cast<double>(trials_)
               : 0.0;
  }

 private:
  std::uint64_t trials_ = 0;
  std::uint64_t successes_ = 0;
};

}  // namespace redund::stats
