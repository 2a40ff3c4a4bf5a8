#include "core/schemes/min_assignment.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "math/binomial.hpp"

namespace redund::core {

namespace {

void require_args(double task_count, double epsilon, std::int64_t dimension) {
  if (!(task_count > 0.0)) {
    throw std::invalid_argument("min_assignment: task_count must be > 0");
  }
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    throw std::invalid_argument("min_assignment: epsilon must lie in (0, 1)");
  }
  if (dimension < 2) {
    throw std::invalid_argument("min_assignment: dimension must be >= 2");
  }
}

lp::Model build_model(double task_count, double epsilon, std::int64_t dimension,
                      lp::Relation probability_relation) {
  lp::Model model;
  model.set_sense(lp::Sense::kMinimize);
  const auto m = static_cast<std::size_t>(dimension);
  for (std::size_t i = 1; i <= m; ++i) {
    model.add_variable(static_cast<double>(i), "x_" + std::to_string(i));
  }

  // C_0: coverage.
  {
    lp::Constraint c0;
    c0.name = "C_0";
    c0.relation = lp::Relation::kGreaterEqual;
    c0.rhs = task_count;
    for (std::size_t i = 0; i < m; ++i) {
      c0.variables.push_back(i);
      c0.coefficients.push_back(1.0);
    }
    model.add_constraint(std::move(c0));
  }

  // C_k, k = 1..m-1: sum_{i>k} C(i,k) x_i - (eps/(1-eps)) x_k REL 0.
  const double ratio = epsilon / (1.0 - epsilon);
  for (std::int64_t k = 1; k < dimension; ++k) {
    lp::Constraint ck;
    ck.name = "C_" + std::to_string(k);
    ck.relation = probability_relation;
    ck.rhs = 0.0;
    ck.variables.push_back(static_cast<std::size_t>(k - 1));
    ck.coefficients.push_back(-ratio);
    for (std::int64_t i = k + 1; i <= dimension; ++i) {
      ck.variables.push_back(static_cast<std::size_t>(i - 1));
      ck.coefficients.push_back(math::binomial(i, k));
    }
    model.add_constraint(std::move(ck));
  }
  return model;
}

MinAssignmentResult solve_model(const lp::Model& model, double epsilon,
                                std::int64_t dimension) {
  MinAssignmentResult result;
  const lp::Solution solution = lp::solve(model);
  result.status = solution.status;
  if (solution.status != lp::SolveStatus::kOptimal) return result;

  result.distribution = Distribution(
      solution.x, "min-assign(S_" + std::to_string(dimension) +
                      ",eps=" + std::to_string(epsilon) + ")");
  result.total_assignments = result.distribution.total_assignments();
  result.precompute_required =
      result.distribution.tasks_at(result.distribution.dimension());
  return result;
}

}  // namespace

lp::Model build_min_assignment_model(double task_count, double epsilon,
                                     std::int64_t dimension) {
  require_args(task_count, epsilon, dimension);
  return build_model(task_count, epsilon, dimension,
                     lp::Relation::kGreaterEqual);
}

MinAssignmentResult solve_min_assignment(double task_count, double epsilon,
                                         std::int64_t dimension) {
  require_args(task_count, epsilon, dimension);
  const lp::Model model =
      build_model(task_count, epsilon, dimension, lp::Relation::kGreaterEqual);
  return solve_model(model, epsilon, dimension);
}

MinAssignmentResult solve_min_assignment_equality(double task_count,
                                                  double epsilon,
                                                  std::int64_t dimension) {
  require_args(task_count, epsilon, dimension);
  const lp::Model model =
      build_model(task_count, epsilon, dimension, lp::Relation::kEqual);
  return solve_model(model, epsilon, dimension);
}

Distribution min_assignment_closed_form_half(double task_count,
                                             std::int64_t dimension) {
  if (dimension < 6) {
    throw std::invalid_argument(
        "min_assignment_closed_form_half: Fact 1 requires dimension >= 6");
  }
  if (!(task_count > 0.0)) {
    throw std::invalid_argument(
        "min_assignment_closed_form_half: task_count must be > 0");
  }
  const auto m = static_cast<double>(dimension);
  const double d = 3.0 * m * m - m + 2.0;
  std::vector<double> components(static_cast<std::size_t>(dimension), 0.0);
  components[0] = 2.0 * task_count * m * m / d;
  components[1] = task_count * m * (m - 1.0) / d;
  components[static_cast<std::size_t>(dimension - 1)] = 2.0 * task_count / d;
  return Distribution(std::move(components),
                      "fact1(S_" + std::to_string(dimension) + ",eps=0.5)");
}

double min_assignment_rf_half(std::int64_t dimension) {
  if (dimension < 6) {
    throw std::invalid_argument(
        "min_assignment_rf_half: Fact 1 requires dimension >= 6");
  }
  const auto m = static_cast<double>(dimension);
  return 4.0 * m * m / (3.0 * m * m - m + 2.0);
}

}  // namespace redund::core
