// The redundancy-distribution abstraction of Section 2.1 of the paper.
//
// A distribution x = (x_1, x_2, ...) assigns x_i of the computation's N tasks
// with multiplicity i (i.e. i identical copies enter the assignment pool).
// Components are real-valued and non-negative; Section 6's realization step
// (core/realize.hpp) converts a theoretical distribution into integer task
// counts for deployment. Index convention throughout the library is
// 1-based multiplicity, matching the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace redund::core {

/// A (finite-dimensional representation of a) redundancy distribution.
///
/// Invariants: every component is non-negative and the last stored component
/// is non-zero (trailing zeros are trimmed), so dimension() == size of the
/// underlying vector.
class Distribution {
 public:
  Distribution() = default;

  /// `tasks_by_multiplicity[i]` is x_{i+1}, i.e. element 0 is the number of
  /// tasks assigned once. Negative components throw std::invalid_argument.
  explicit Distribution(std::vector<double> tasks_by_multiplicity,
                        std::string label = {});

  /// Number of tasks assigned with multiplicity `multiplicity` (1-based).
  /// Zero for multiplicities beyond the stored dimension.
  [[nodiscard]] double tasks_at(std::int64_t multiplicity) const noexcept;

  /// Largest multiplicity with a non-zero component; 0 for the empty
  /// distribution. (The paper's "dimension".)
  [[nodiscard]] std::int64_t dimension() const noexcept {
    return static_cast<std::int64_t>(components_.size());
  }

  /// sum_i x_i — the number of tasks covered.
  [[nodiscard]] double task_count() const noexcept { return task_count_; }

  /// sum_i i * x_i — the number of assignments the distribution costs.
  [[nodiscard]] double total_assignments() const noexcept {
    return total_assignments_;
  }

  /// total_assignments() / task_count() — the paper's redundancy factor.
  /// Returns 0 for the empty distribution.
  [[nodiscard]] double redundancy_factor() const noexcept;

  /// Human-readable label (e.g. "balanced(eps=0.5)").
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  /// Read-only view of the components (index 0 = multiplicity 1).
  [[nodiscard]] const std::vector<double>& components() const noexcept {
    return components_;
  }

  /// Returns a copy scaled by `factor` >= 0 (scales tasks and assignments
  /// alike; redundancy factor is invariant).
  [[nodiscard]] Distribution scaled(double factor) const;

 private:
  void recompute_totals_() noexcept;

  std::vector<double> components_;
  std::string label_;
  double task_count_ = 0.0;
  double total_assignments_ = 0.0;
};

/// Simple redundancy with multiplicity m (paper Section 1): all N tasks
/// assigned exactly m times; x = (0, ..., 0, N). m >= 1.
[[nodiscard]] Distribution make_simple_redundancy(double task_count,
                                                  std::int64_t multiplicity = 2);

}  // namespace redund::core
