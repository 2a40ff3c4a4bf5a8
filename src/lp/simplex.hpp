// Two-phase primal simplex solver for the models in lp/model.hpp.
//
// The S_k systems are small (tens of variables) but highly degenerate — the
// optimal vertex satisfies many constraints with equality — so the solver
// falls back to Bland's anti-cycling rule after a Dantzig-rule warm phase,
// which guarantees finite termination at the cost of extra pivots. Dense
// tableau storage is appropriate at this scale and keeps the implementation
// auditable.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace redund::lp {

/// Outcome classification of a solve.
enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

[[nodiscard]] std::string to_string(SolveStatus status);

/// Result of solve().
struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  std::vector<double> x;      ///< Primal values (size = model variable count).
  double objective = 0.0;     ///< Objective at x (model sense).
};

/// Solves `model` by dense two-phase primal simplex. On kOptimal the
/// returned x is feasible (model.is_feasible(x)) and optimal to within the
/// solver's tolerances. Stateless; safe to call from multiple threads on
/// distinct Model instances.
[[nodiscard]] Solution solve(const Model& model);

}  // namespace redund::lp
