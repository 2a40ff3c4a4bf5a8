#include "sim/two_phase.hpp"

#include <cmath>

namespace redund::sim {

double two_phase_expected_overlap(std::int64_t task_count,
                                  std::int64_t adversary_work) noexcept {
  if (task_count <= 0) return 0.0;
  const auto w = static_cast<double>(adversary_work);
  return w * w / static_cast<double>(task_count);
}

double two_phase_threshold(std::int64_t task_count) noexcept {
  return task_count > 0 ? 1.0 / std::sqrt(static_cast<double>(task_count)) : 0.0;
}

}  // namespace redund::sim
