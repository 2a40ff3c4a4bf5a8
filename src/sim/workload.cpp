#include "sim/workload.hpp"

#include <algorithm>
#include <stdexcept>

namespace redund::sim {

Workload::Workload(const std::vector<std::int64_t>& counts,
                   std::int64_t ringer_count,
                   std::int64_t ringer_multiplicity) {
  for (const std::int64_t count : counts) {
    if (count < 0) {
      throw std::invalid_argument("Workload: negative task count");
    }
  }
  if (ringer_count < 0 || (ringer_count > 0 && ringer_multiplicity < 1)) {
    throw std::invalid_argument("Workload: bad ringer configuration");
  }

  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] > 0) {
      const auto multiplicity = static_cast<std::int64_t>(i + 1);
      classes_.push_back(
          {multiplicity, false, counts[i], counts[i] * multiplicity});
    }
  }
  if (ringer_count > 0) {
    classes_.push_back({ringer_multiplicity, true, ringer_count,
                        ringer_count * ringer_multiplicity});
  }
  for (const TaskClass& cls : classes_) {
    task_count_ += cls.count;
    total_assignments_ += cls.assignments;
    max_multiplicity_ = std::max(max_multiplicity_, cls.multiplicity);
  }
  ringer_count_ = ringer_count;
}

}  // namespace redund::sim
