// Unit tests for redund_lp: model building, feasibility oracle, and the
// two-phase simplex on known optima, infeasible/unbounded cases, degenerate
// problems, and randomized property sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "rng/distributions.hpp"
#include "rng/engines.hpp"

using redund::lp::Model;
using redund::lp::Relation;
using redund::lp::Sense;
using redund::lp::Solution;
using redund::lp::solve;
using redund::lp::SolveStatus;

namespace {

// ------------------------------------------------------------------- model

TEST(Model, DenseConstraintDropsZeros) {
  Model model;
  model.add_variable(1.0, "x");
  model.add_variable(2.0, "y");
  model.add_constraint_dense({0.0, 3.0}, Relation::kLessEqual, 6.0);
  ASSERT_EQ(model.constraint_count(), 1u);
  EXPECT_EQ(model.constraints()[0].variables.size(), 1u);
  EXPECT_EQ(model.constraints()[0].variables[0], 1u);
}

TEST(Model, DenseConstraintSizeMismatchThrows) {
  Model model;
  model.add_variable(1.0);
  EXPECT_THROW(
      model.add_constraint_dense({1.0, 2.0}, Relation::kLessEqual, 1.0),
      std::invalid_argument);
}

TEST(Model, FeasibilityOracle) {
  Model model;
  model.add_variable(1.0);
  model.add_variable(1.0);
  model.add_constraint_dense({1.0, 1.0}, Relation::kGreaterEqual, 2.0);
  model.add_constraint_dense({1.0, -1.0}, Relation::kEqual, 0.0);
  EXPECT_TRUE(model.is_feasible({1.0, 1.0}));
  EXPECT_FALSE(model.is_feasible({0.5, 0.5}));   // Violates >=.
  EXPECT_FALSE(model.is_feasible({2.0, 1.0}));   // Violates ==.
  EXPECT_FALSE(model.is_feasible({-1.0, 3.0}));  // Negative variable.
}

TEST(Model, ObjectiveValue) {
  Model model;
  model.add_variable(2.0);
  model.add_variable(-3.0);
  EXPECT_DOUBLE_EQ(model.objective_value({4.0, 1.0}), 5.0);
}

// ----------------------------------------------------------------- simplex

TEST(Simplex, TextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => (2, 6), z = 36.
  Model model;
  model.set_sense(Sense::kMaximize);
  model.add_variable(3.0, "x");
  model.add_variable(5.0, "y");
  model.add_constraint_dense({1.0, 0.0}, Relation::kLessEqual, 4.0);
  model.add_constraint_dense({0.0, 2.0}, Relation::kLessEqual, 12.0);
  model.add_constraint_dense({3.0, 2.0}, Relation::kLessEqual, 18.0);

  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-8);
  EXPECT_NEAR(solution.x[1], 6.0, 1e-8);
  EXPECT_NEAR(solution.objective, 36.0, 1e-8);
}

TEST(Simplex, MinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  => x=7, y=3, z = 23.
  Model model;
  model.add_variable(2.0);
  model.add_variable(3.0);
  model.add_constraint_dense({1.0, 1.0}, Relation::kGreaterEqual, 10.0);
  model.add_constraint_dense({1.0, 0.0}, Relation::kGreaterEqual, 2.0);
  model.add_constraint_dense({0.0, 1.0}, Relation::kGreaterEqual, 3.0);

  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 23.0, 1e-8);
  EXPECT_NEAR(solution.x[0], 7.0, 1e-8);
  EXPECT_NEAR(solution.x[1], 3.0, 1e-8);
}

TEST(Simplex, EqualityConstraints) {
  // min x + y s.t. x + 2y == 4, 3x + y == 7  => x = 2, y = 1, z = 3.
  Model model;
  model.add_variable(1.0);
  model.add_variable(1.0);
  model.add_constraint_dense({1.0, 2.0}, Relation::kEqual, 4.0);
  model.add_constraint_dense({3.0, 1.0}, Relation::kEqual, 7.0);

  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.x[0], 2.0, 1e-8);
  EXPECT_NEAR(solution.x[1], 1.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible) {
  // x <= 1 and x >= 2 cannot both hold.
  Model model;
  model.add_variable(1.0);
  model.add_constraint_dense({1.0}, Relation::kLessEqual, 1.0);
  model.add_constraint_dense({1.0}, Relation::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(model).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnbounded) {
  // max x with only x >= 1.
  Model model;
  model.set_sense(Sense::kMaximize);
  model.add_variable(1.0);
  model.add_constraint_dense({1.0}, Relation::kGreaterEqual, 1.0);
  EXPECT_EQ(solve(model).status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsIsNormalized) {
  // min x + y s.t. -x - y <= -5  (i.e. x + y >= 5).
  Model model;
  model.add_variable(1.0);
  model.add_variable(1.0);
  model.add_constraint_dense({-1.0, -1.0}, Relation::kLessEqual, -5.0);
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 5.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Beale's classic cycling example (cycles under naive Dantzig without
  // anti-cycling): min -0.75x4 + 150x5 - 0.02x6 + 6x7 ... formulated in
  // standard min form with the usual coefficients.
  Model model;
  model.add_variable(-0.75);
  model.add_variable(150.0);
  model.add_variable(-0.02);
  model.add_variable(6.0);
  model.add_constraint_dense({0.25, -60.0, -1.0 / 25.0, 9.0},
                             Relation::kLessEqual, 0.0);
  model.add_constraint_dense({0.5, -90.0, -1.0 / 50.0, 3.0},
                             Relation::kLessEqual, 0.0);
  model.add_constraint_dense({0.0, 0.0, 1.0, 0.0}, Relation::kLessEqual, 1.0);

  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, -0.05, 1e-8);
}

TEST(Simplex, RedundantEqualityRowsHandled) {
  // Duplicated equality row leaves a basic artificial at zero after phase 1.
  Model model;
  model.add_variable(1.0);
  model.add_variable(2.0);
  model.add_constraint_dense({1.0, 1.0}, Relation::kEqual, 3.0);
  model.add_constraint_dense({2.0, 2.0}, Relation::kEqual, 6.0);  // Redundant.
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 3.0, 1e-8);  // All mass on cheap x0.
  EXPECT_NEAR(solution.x[0], 3.0, 1e-8);
}

TEST(Simplex, ZeroRhsEqualitiesAreFeasibleAtOrigin) {
  Model model;
  model.add_variable(1.0);
  model.add_variable(1.0);
  model.add_constraint_dense({1.0, -1.0}, Relation::kEqual, 0.0);
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(solution.objective, 0.0, 1e-10);
}

// Property sweep: random LPs built around a known feasible point. The solver
// must return kOptimal, a feasible x, and an objective no worse than the
// planted point's.
class SimplexRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandomSweep, OptimalIsFeasibleAndBeatsPlantedPoint) {
  redund::rng::Xoshiro256StarStar engine(GetParam());
  const std::size_t vars = 2 + redund::rng::uniform_below(5, engine);
  const std::size_t rows = 1 + redund::rng::uniform_below(6, engine);

  // Plant a strictly positive feasible point.
  std::vector<double> planted(vars);
  for (auto& v : planted) v = 0.5 + 4.0 * redund::rng::uniform01(engine);

  Model model;
  for (std::size_t j = 0; j < vars; ++j) {
    model.add_variable(0.1 + 3.0 * redund::rng::uniform01(engine));
  }
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<double> row(vars);
    double lhs = 0.0;
    for (std::size_t j = 0; j < vars; ++j) {
      row[j] = -1.0 + 2.0 * redund::rng::uniform01(engine);
      lhs += row[j] * planted[j];
    }
    // Make the planted point satisfy the row with slack.
    if (redund::rng::bernoulli(0.5, engine)) {
      model.add_constraint_dense(row, Relation::kLessEqual, lhs + 1.0);
    } else {
      model.add_constraint_dense(row, Relation::kGreaterEqual, lhs - 1.0);
    }
  }

  ASSERT_TRUE(model.is_feasible(planted));
  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_TRUE(model.is_feasible(solution.x, 1e-6));
  EXPECT_LE(solution.objective, model.objective_value(planted) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomSweep,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(Simplex, SolvesIllConditionedSmSystem) {
  // The S_26 system mixes O(1) and O(C(26,13)) ~ 1e7 coefficients in one
  // row. Row equilibration lets the solver reach the known optimum
  // (Fact 1: RF = 4m^2/(3m^2-m+2)); without it, it misconverges.
  redund::lp::Model model;
  {
    // Rebuild S_26 here to keep this test self-contained at the lp layer.
    constexpr double kN = 100000.0;
    constexpr double kRatio = 1.0;  // eps/(1-eps) at eps = 1/2.
    constexpr std::int64_t kDim = 26;
    for (std::int64_t i = 1; i <= kDim; ++i) {
      model.add_variable(static_cast<double>(i));
    }
    redund::lp::Constraint cover;
    cover.relation = Relation::kGreaterEqual;
    cover.rhs = kN;
    for (std::size_t j = 0; j < 26; ++j) {
      cover.variables.push_back(j);
      cover.coefficients.push_back(1.0);
    }
    model.add_constraint(std::move(cover));
    auto choose = [](std::int64_t n, std::int64_t k) {
      double c = 1.0;
      for (std::int64_t i = 1; i <= k; ++i) {
        c = c * static_cast<double>(n - k + i) / static_cast<double>(i);
      }
      return c;
    };
    for (std::int64_t k = 1; k < kDim; ++k) {
      redund::lp::Constraint ck;
      ck.relation = Relation::kGreaterEqual;
      ck.rhs = 0.0;
      ck.variables.push_back(static_cast<std::size_t>(k - 1));
      ck.coefficients.push_back(-kRatio);
      for (std::int64_t i = k + 1; i <= kDim; ++i) {
        ck.variables.push_back(static_cast<std::size_t>(i - 1));
        ck.coefficients.push_back(choose(i, k));
      }
      model.add_constraint(std::move(ck));
    }
  }
  const double expected = 100000.0 * 4.0 * 676.0 / (3.0 * 676.0 - 26.0 + 2.0);

  const Solution solution = solve(model);
  ASSERT_EQ(solution.status, SolveStatus::kOptimal);
  EXPECT_TRUE(model.is_feasible(solution.x, 1e-6));
  EXPECT_NEAR(solution.objective, expected, 1e-4 * expected);
}

TEST(SolveStatusToString, AllValuesNamed) {
  EXPECT_EQ(redund::lp::to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(redund::lp::to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_EQ(redund::lp::to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_EQ(redund::lp::to_string(SolveStatus::kIterationLimit),
            "iteration-limit");
}

}  // namespace
