#include "core/distribution.hpp"

#include <stdexcept>

#include "math/summation.hpp"

namespace redund::core {

Distribution::Distribution(std::vector<double> tasks_by_multiplicity,
                           std::string label)
    : components_(std::move(tasks_by_multiplicity)), label_(std::move(label)) {
  for (const double x : components_) {
    if (!(x >= 0.0)) {  // Also rejects NaN.
      throw std::invalid_argument(
          "Distribution: components must be non-negative finite values");
    }
  }
  while (!components_.empty() && components_.back() == 0.0) {
    components_.pop_back();
  }
  recompute_totals_();
}

void Distribution::recompute_totals_() noexcept {
  math::NeumaierSum tasks;
  math::NeumaierSum assignments;
  for (std::size_t i = 0; i < components_.size(); ++i) {
    tasks.add(components_[i]);
    assignments.add(static_cast<double>(i + 1) * components_[i]);
  }
  task_count_ = tasks.value();
  total_assignments_ = assignments.value();
}

double Distribution::tasks_at(std::int64_t multiplicity) const noexcept {
  if (multiplicity < 1 || multiplicity > dimension()) return 0.0;
  return components_[static_cast<std::size_t>(multiplicity - 1)];
}

double Distribution::redundancy_factor() const noexcept {
  return task_count_ > 0.0 ? total_assignments_ / task_count_ : 0.0;
}

Distribution Distribution::scaled(double factor) const {
  if (!(factor >= 0.0)) {
    throw std::invalid_argument("Distribution::scaled: factor must be >= 0");
  }
  std::vector<double> scaled_components(components_.size());
  for (std::size_t i = 0; i < components_.size(); ++i) {
    scaled_components[i] = components_[i] * factor;
  }
  return Distribution(std::move(scaled_components), label_);
}

Distribution make_simple_redundancy(double task_count, std::int64_t multiplicity) {
  if (multiplicity < 1) {
    throw std::invalid_argument(
        "make_simple_redundancy: multiplicity must be >= 1");
  }
  if (!(task_count >= 0.0)) {
    throw std::invalid_argument(
        "make_simple_redundancy: task_count must be >= 0");
  }
  std::vector<double> components(static_cast<std::size_t>(multiplicity), 0.0);
  components.back() = task_count;
  return Distribution(std::move(components),
                      "simple(m=" + std::to_string(multiplicity) + ")");
}

}  // namespace redund::core
