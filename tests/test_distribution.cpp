// Unit tests for the Distribution abstraction and validity checking.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/constraints.hpp"
#include "core/distribution.hpp"

using redund::core::Distribution;
using redund::core::check_validity;
using redund::core::check_validity_all;
using redund::core::make_simple_redundancy;
using redund::core::precompute_requirement;

namespace {

TEST(Distribution, EmptyDefaults) {
  Distribution d;
  EXPECT_EQ(d.dimension(), 0);
  EXPECT_EQ(d.task_count(), 0.0);
  EXPECT_EQ(d.total_assignments(), 0.0);
  EXPECT_EQ(d.redundancy_factor(), 0.0);
  EXPECT_EQ(d.tasks_at(1), 0.0);
}

TEST(Distribution, BasicAccounting) {
  // x_1 = 10, x_2 = 5, x_3 = 1: 16 tasks, 10 + 10 + 3 = 23 assignments.
  Distribution d({10.0, 5.0, 1.0});
  EXPECT_EQ(d.dimension(), 3);
  EXPECT_DOUBLE_EQ(d.task_count(), 16.0);
  EXPECT_DOUBLE_EQ(d.total_assignments(), 23.0);
  EXPECT_DOUBLE_EQ(d.redundancy_factor(), 23.0 / 16.0);
  EXPECT_DOUBLE_EQ(d.tasks_at(2), 5.0);
  EXPECT_DOUBLE_EQ(d.tasks_at(4), 0.0);
}

TEST(Distribution, TrailingZerosTrimmed) {
  Distribution d({1.0, 0.0, 2.0, 0.0, 0.0});
  EXPECT_EQ(d.dimension(), 3);
}

TEST(Distribution, NegativeComponentThrows) {
  EXPECT_THROW(Distribution({1.0, -0.5}), std::invalid_argument);
}

TEST(Distribution, NanComponentThrows) {
  EXPECT_THROW(Distribution({std::nan("")}), std::invalid_argument);
}

TEST(Distribution, ScaledPreservesRedundancyFactor) {
  Distribution d({10.0, 5.0, 1.0});
  const Distribution half = d.scaled(0.5);
  EXPECT_DOUBLE_EQ(half.task_count(), 8.0);
  EXPECT_DOUBLE_EQ(half.redundancy_factor(), d.redundancy_factor());
  EXPECT_THROW(d.scaled(-1.0), std::invalid_argument);
}

TEST(Distribution, OutOfRangeMultiplicityQueriesAreZero) {
  Distribution d({3.0});
  EXPECT_EQ(d.tasks_at(0), 0.0);
  EXPECT_EQ(d.tasks_at(-2), 0.0);
  EXPECT_EQ(d.tasks_at(100), 0.0);
}

// --------------------------------------------------------- simple redundancy

TEST(SimpleRedundancy, DefaultIsDouble) {
  const Distribution d = make_simple_redundancy(1000.0);
  EXPECT_EQ(d.dimension(), 2);
  EXPECT_DOUBLE_EQ(d.tasks_at(2), 1000.0);
  EXPECT_DOUBLE_EQ(d.redundancy_factor(), 2.0);
}

TEST(SimpleRedundancy, ArbitraryMultiplicity) {
  const Distribution d = make_simple_redundancy(100.0, 5);
  EXPECT_EQ(d.dimension(), 5);
  EXPECT_DOUBLE_EQ(d.total_assignments(), 500.0);
}

TEST(SimpleRedundancy, RejectsBadArguments) {
  EXPECT_THROW(make_simple_redundancy(10.0, 0), std::invalid_argument);
  EXPECT_THROW(make_simple_redundancy(-1.0, 2), std::invalid_argument);
}

// ------------------------------------------------------------------ validity

TEST(Validity, SimpleRedundancyIsVacuouslyValidButTopUnprotected) {
  // Simple redundancy (m = 2) satisfies C_0 and C_1 (P_1 = 1: any single
  // copy has a partner) but not C_2: the whole point of the paper.
  const Distribution d = make_simple_redundancy(1000.0, 2);
  EXPECT_TRUE(check_validity(d, 1000.0, 0.5).valid);
  const auto all = check_validity_all(d, 1000.0, 0.5);
  EXPECT_FALSE(all.valid);
  ASSERT_EQ(all.violations.size(), 1u);
  EXPECT_EQ(all.violations[0].k, 2);
  EXPECT_EQ(all.violations[0].actual, 0.0);
}

TEST(Validity, CoverageViolationReported) {
  const Distribution d({10.0});
  const auto report = check_validity(d, 100.0, 0.5);
  EXPECT_FALSE(report.valid);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations[0].k, 0);
}

TEST(Validity, DetectsLowDetectionProbability) {
  // x_1 = 99, x_2 = 1: P_1 = 2/(99+2) << 0.5.
  const Distribution d({99.0, 1.0});
  const auto report = check_validity(d, 100.0, 0.5);
  EXPECT_FALSE(report.valid);
  bool found_c1 = false;
  for (const auto& violation : report.violations) {
    if (violation.k == 1) {
      found_c1 = true;
      EXPECT_LT(violation.actual, 0.1);
    }
  }
  EXPECT_TRUE(found_c1);
}

TEST(Validity, PrecomputeRequirementIsTopMass) {
  const Distribution d({10.0, 5.0, 2.0});
  EXPECT_DOUBLE_EQ(precompute_requirement(d), 2.0);
  EXPECT_DOUBLE_EQ(precompute_requirement(Distribution{}), 0.0);
}

}  // namespace
