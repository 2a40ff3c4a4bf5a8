// High-level planning facade — the one-call public API most users want.
//
// Given a computation size N, a target cheat-detection level epsilon, and a
// scheme choice, make_plan() builds the theoretical distribution, realizes
// it into integer task counts with tail partition and ringers (Section 6),
// and reports the cost/protection summary. See examples/quickstart.cpp.
#pragma once

#include <cstdint>
#include <string>

#include "core/distribution.hpp"
#include "core/realize.hpp"

namespace redund::core {

/// Scheme selector for make_plan().
enum class Scheme {
  kSimple,            ///< Simple redundancy: every task assigned twice.
  kGolleStubblebine,  ///< Geometric baseline (Section 3.1).
  kBalanced,          ///< The paper's Balanced distribution (Section 4).
  kMinAssignment,     ///< LP-optimal S_m (Section 3.2) — cheapest, fragile.
  kMinMultiplicity,   ///< Balanced with a multiplicity floor (Section 7).
};

[[nodiscard]] std::string to_string(Scheme scheme);

/// Parameters for make_plan().
struct PlanRequest {
  std::int64_t task_count = 0;   ///< N, number of distinct tasks (>= 1).
  double epsilon = 0.5;          ///< Target detection level in (0, 1).
  Scheme scheme = Scheme::kBalanced;
  std::int64_t minimum_multiplicity = 2; ///< For kMinMultiplicity.
  std::int64_t lp_dimension = 12;        ///< For kMinAssignment (>= 2).
  bool add_ringers = true;               ///< Guard the top multiplicity.
};

/// A complete deployment plan.
struct Plan {
  Distribution theoretical;  ///< Real-valued scheme output.
  RealizedPlan realized;     ///< Integer counts + tail + ringers.
  double epsilon = 0.0;      ///< The level planned for.

  /// Guaranteed asymptotic detection level of the realized plan (min over
  /// tuple sizes, ringers included). ~epsilon for Balanced/GS/min-mult.
  double achieved_level = 0.0;
  /// Detection level against an adversary controlling 10% of assignments.
  double achieved_level_p10 = 0.0;
};

/// Builds a plan; throws std::invalid_argument for out-of-range parameters.
/// Note: kSimple cannot reach any positive level against colluders holding a
/// full tuple — its achieved_level is honest (near 0 without ringers).
[[nodiscard]] Plan make_plan(const PlanRequest& request);

}  // namespace redund::core
