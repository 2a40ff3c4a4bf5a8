#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/contracts.hpp"

namespace redund::lp {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

/// Entries below this are treated as zero.
constexpr double kPivotTolerance = 1e-9;
/// Reduced-cost optimality threshold.
constexpr double kCostTolerance = 1e-9;
/// Per-phase pivot budget.
constexpr int kMaxPivots = 100000;
/// Pivots before switching from Dantzig's rule to Bland's.
constexpr int kDantzigPivots = 2000;

/// Fully updated dense tableau: rows are basic-variable equations, columns
/// are all variables (structural, slack/surplus, artificial), plus rhs.
struct Tableau {
  std::size_t rows = 0;
  std::size_t cols = 0;  // Excluding rhs.
  std::vector<double> a;  // rows x cols, row-major.
  std::vector<double> rhs;
  std::vector<std::size_t> basis;  // Column basic in each row.

  [[nodiscard]] double& at(std::size_t i, std::size_t j) noexcept {
    return a[i * cols + j];
  }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const noexcept {
    return a[i * cols + j];
  }

  void pivot(std::size_t pivot_row, std::size_t pivot_col) noexcept {
    REDUND_PRECONDITION(pivot_row < rows && pivot_col < cols,
                        "pivot element lies inside the tableau");
    const double pivot_value = at(pivot_row, pivot_col);
    REDUND_PRECONDITION(pivot_value != 0.0 && std::isfinite(pivot_value),
                        "pivot element is nonzero and finite");
    const double inv = 1.0 / pivot_value;
    for (std::size_t j = 0; j < cols; ++j) at(pivot_row, j) *= inv;
    rhs[pivot_row] *= inv;
    at(pivot_row, pivot_col) = 1.0;  // Kill representation noise.
    for (std::size_t i = 0; i < rows; ++i) {
      if (i == pivot_row) continue;
      const double factor = at(i, pivot_col);
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j < cols; ++j) {
        at(i, j) -= factor * at(pivot_row, j);
      }
      rhs[i] -= factor * rhs[pivot_row];
      at(i, pivot_col) = 0.0;
    }
    basis[pivot_row] = pivot_col;
  }
};

/// Reduced cost of column j under cost vector c: d_j = c_j - c_B^T (B^-1 A_j).
double reduced_cost(const Tableau& tableau, const std::vector<double>& costs,
                    std::size_t j) noexcept {
  double d = costs[j];
  for (std::size_t i = 0; i < tableau.rows; ++i) {
    const double entry = tableau.at(i, j);
    if (entry != 0.0) d -= costs[tableau.basis[i]] * entry;
  }
  return d;
}

enum class PhaseOutcome { kOptimal, kUnbounded, kIterationLimit };

#if REDUND_ENABLE_INVARIANTS
/// Basis sanity after a pivot: every basic column index is in range and
/// the numbers are still numbers. Deliberately structural-only — exact
/// properties of a correct implementation on any input. Near-feasibility
/// of the rhs is NOT asserted here: it is a numerical property, not an
/// implementation contract — on an ill-conditioned system rounding error
/// can drive the rhs ~1e-4 of the tableau scale negative while the
/// algorithm behaves as documented.
bool tableau_consistent(const Tableau& tableau) {
  for (std::size_t i = 0; i < tableau.rows; ++i) {
    if (tableau.basis[i] >= tableau.cols) return false;
    if (!std::isfinite(tableau.rhs[i])) return false;
  }
  return true;
}
#endif

/// Runs primal simplex iterations under `costs` until optimality. Columns j
/// with allowed[j] == false may not enter the basis (used to lock out
/// artificials in phase 2).
PhaseOutcome run_phase(Tableau& tableau, const std::vector<double>& costs,
                       const std::vector<char>& allowed) {
  for (int pivots = 0; pivots < kMaxPivots; ++pivots) {
    const bool use_bland = pivots >= kDantzigPivots;

    // Entering column: Dantzig (most negative reduced cost) early, Bland
    // (first negative) once degeneracy is suspected.
    std::size_t entering = tableau.cols;
    double best = -kCostTolerance;
    for (std::size_t j = 0; j < tableau.cols; ++j) {
      if (!allowed[j]) continue;
      const double d = reduced_cost(tableau, costs, j);
      if (d < best) {
        entering = j;
        if (use_bland) break;
        best = d;
      }
    }
    if (entering == tableau.cols) return PhaseOutcome::kOptimal;

    // Ratio test; Bland tie-break on the leaving basic variable's index.
    std::size_t leaving = tableau.rows;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < tableau.rows; ++i) {
      const double entry = tableau.at(i, entering);
      if (entry <= kPivotTolerance) continue;
      const double ratio = tableau.rhs[i] / entry;
      if (ratio < best_ratio - kPivotTolerance ||
          (ratio < best_ratio + kPivotTolerance &&
           (leaving == tableau.rows ||
            tableau.basis[i] < tableau.basis[leaving]))) {
        best_ratio = ratio;
        leaving = i;
      }
    }
    if (leaving == tableau.rows) return PhaseOutcome::kUnbounded;

    tableau.pivot(leaving, entering);
    REDUND_INVARIANT(tableau_consistent(tableau),
                     "simplex tableau stays basis-valid and near-feasible "
                     "after every pivot");
  }
  return PhaseOutcome::kIterationLimit;
}

}  // namespace

Solution solve(const Model& model) {
  const std::size_t n = model.variable_count();
  const std::size_t m = model.constraint_count();

  // Count auxiliary columns.
  std::size_t slack_count = 0;
  std::size_t artificial_count = 0;
  for (const Constraint& c : model.constraints()) {
    // Normalize rhs >= 0 first to decide which auxiliaries the row needs.
    const bool negate = c.rhs < 0.0;
    Relation rel = c.relation;
    if (negate) {
      rel = rel == Relation::kLessEqual ? Relation::kGreaterEqual
            : rel == Relation::kGreaterEqual ? Relation::kLessEqual
                                             : Relation::kEqual;
    }
    if (rel != Relation::kEqual) ++slack_count;
    if (rel != Relation::kLessEqual) ++artificial_count;
  }

  Tableau tableau;
  tableau.rows = m;
  tableau.cols = n + slack_count + artificial_count;
  tableau.a.assign(tableau.rows * tableau.cols, 0.0);
  tableau.rhs.assign(m, 0.0);
  tableau.basis.assign(m, 0);

  std::vector<char> is_artificial(tableau.cols, 0);
  std::size_t next_slack = n;
  std::size_t next_artificial = n + slack_count;

  for (std::size_t i = 0; i < m; ++i) {
    const Constraint& c = model.constraints()[i];
    const bool negate = c.rhs < 0.0;
    const double sign = negate ? -1.0 : 1.0;
    Relation rel = c.relation;
    if (negate) {
      rel = rel == Relation::kLessEqual ? Relation::kGreaterEqual
            : rel == Relation::kGreaterEqual ? Relation::kLessEqual
                                             : Relation::kEqual;
    }
    // Row equilibration: divide the row by its largest coefficient so
    // rows with huge entries (the binomial coefficients of the S_m
    // systems) do not wreck the pivoting numerics. The S_m systems
    // misconverge without it from m ~ 20. This rescales the constraint,
    // not the solution set.
    double row_scale = 0.0;
    for (const double coefficient : c.coefficients) {
      row_scale = std::max(row_scale, std::abs(coefficient));
    }
    row_scale = std::max(row_scale, std::abs(c.rhs));
    const double inv_scale = row_scale > 0.0 ? 1.0 / row_scale : 1.0;
    for (std::size_t t = 0; t < c.variables.size(); ++t) {
      tableau.at(i, c.variables[t]) += sign * inv_scale * c.coefficients[t];
    }
    tableau.rhs[i] = sign * inv_scale * c.rhs;

    switch (rel) {
      case Relation::kLessEqual:
        tableau.at(i, next_slack) = 1.0;
        tableau.basis[i] = next_slack++;
        break;
      case Relation::kGreaterEqual:
        tableau.at(i, next_slack) = -1.0;  // Surplus.
        ++next_slack;
        tableau.at(i, next_artificial) = 1.0;
        is_artificial[next_artificial] = 1;
        tableau.basis[i] = next_artificial++;
        break;
      case Relation::kEqual:
        tableau.at(i, next_artificial) = 1.0;
        is_artificial[next_artificial] = 1;
        tableau.basis[i] = next_artificial++;
        break;
    }
  }

  Solution solution;

  // --- Phase 1: minimize the sum of artificials. ---
  if (artificial_count > 0) {
    std::vector<double> phase1_costs(tableau.cols, 0.0);
    for (std::size_t j = 0; j < tableau.cols; ++j) {
      if (is_artificial[j]) phase1_costs[j] = 1.0;
    }
    std::vector<char> all_allowed(tableau.cols, 1);
    const PhaseOutcome outcome =
        run_phase(tableau, phase1_costs, all_allowed);
    if (outcome == PhaseOutcome::kIterationLimit) {
      solution.status = SolveStatus::kIterationLimit;
      return solution;
    }
    // Phase-1 objective = sum over basic artificials of their value.
    double infeasibility = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      if (is_artificial[tableau.basis[i]]) infeasibility += tableau.rhs[i];
    }
    if (infeasibility > 1e-7 * (1.0 + std::abs(infeasibility))) {
      solution.status = SolveStatus::kInfeasible;
      return solution;
    }
    // Drive any remaining basic artificials (at value zero) out of the basis
    // where possible so phase 2 starts from a clean basis.
    for (std::size_t i = 0; i < m; ++i) {
      if (!is_artificial[tableau.basis[i]]) continue;
      for (std::size_t j = 0; j < n + slack_count; ++j) {
        if (std::abs(tableau.at(i, j)) > kPivotTolerance) {
          tableau.pivot(i, j);
          break;
        }
      }
      // If no pivot exists the row is redundant; the artificial stays basic
      // at zero and is harmless because it can never increase (it is locked
      // out of entering and its row rhs is zero).
    }
  }

  // --- Phase 2: original objective (internally always minimized). ---
  const double sense_sign = model.sense() == Sense::kMinimize ? 1.0 : -1.0;
  std::vector<double> phase2_costs(tableau.cols, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    phase2_costs[j] = sense_sign * model.costs()[j];
  }
  std::vector<char> allowed(tableau.cols, 1);
  for (std::size_t j = 0; j < tableau.cols; ++j) {
    if (is_artificial[j]) allowed[j] = 0;
  }
  const PhaseOutcome outcome = run_phase(tableau, phase2_costs, allowed);
  if (outcome == PhaseOutcome::kIterationLimit) {
    solution.status = SolveStatus::kIterationLimit;
    return solution;
  }
  if (outcome == PhaseOutcome::kUnbounded) {
    solution.status = SolveStatus::kUnbounded;
    return solution;
  }

  solution.status = SolveStatus::kOptimal;
  solution.x.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    if (tableau.basis[i] < n) {
      // Clamp representation noise: variables are non-negative by model.
      solution.x[tableau.basis[i]] = std::max(0.0, tableau.rhs[i]);
    }
  }
  solution.objective = model.objective_value(solution.x);
  return solution;
}

}  // namespace redund::lp
