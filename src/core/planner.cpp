#include "core/planner.hpp"

#include <stdexcept>

#include "core/detection.hpp"
#include "core/schemes/balanced.hpp"
#include "core/schemes/golle_stubblebine.hpp"
#include "core/schemes/min_assignment.hpp"
#include "core/schemes/min_multiplicity.hpp"

namespace redund::core {

std::string to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSimple: return "simple";
    case Scheme::kGolleStubblebine: return "golle-stubblebine";
    case Scheme::kBalanced: return "balanced";
    case Scheme::kMinAssignment: return "min-assignment";
    case Scheme::kMinMultiplicity: return "min-multiplicity";
  }
  return "unknown";
}

Plan make_plan(const PlanRequest& request) {
  if (request.task_count < 1) {
    throw std::invalid_argument("make_plan: task_count must be >= 1");
  }
  const auto n = static_cast<double>(request.task_count);

  Plan plan;
  plan.epsilon = request.epsilon;
  switch (request.scheme) {
    case Scheme::kSimple:
      plan.theoretical = make_simple_redundancy(n, 2);
      break;
    case Scheme::kGolleStubblebine:
      plan.theoretical =
          make_golle_stubblebine_for_level(n, request.epsilon);
      break;
    case Scheme::kBalanced:
      plan.theoretical = make_balanced(n, request.epsilon);
      break;
    case Scheme::kMinAssignment: {
      const MinAssignmentResult result =
          solve_min_assignment(n, request.epsilon, request.lp_dimension);
      if (result.status != lp::SolveStatus::kOptimal) {
        throw std::runtime_error("make_plan: S_" +
                                 std::to_string(request.lp_dimension) +
                                 " solve was " + lp::to_string(result.status));
      }
      plan.theoretical = result.distribution;
      break;
    }
    case Scheme::kMinMultiplicity:
      plan.theoretical = make_min_multiplicity(n, request.epsilon,
                                               request.minimum_multiplicity);
      break;
  }

  plan.realized = realize(plan.theoretical, request.task_count, request.epsilon,
                          {.add_ringers = request.add_ringers});
  // With ringers, the deployed distribution's top multiplicity is the ringer
  // band — precomputed by the supervisor, so it is excluded from the attack
  // scan (include_top = false) while the real top multiplicity, sitting just
  // below it, is covered. Without ringers the real top is genuinely
  // unprotected and must be scanned (include_top = true), honestly yielding
  // zero protection.
  const bool has_ringers = plan.realized.ringer_count > 0;
  const Distribution deployed = plan.realized.as_distribution(has_ringers);
  plan.achieved_level = min_detection(deployed, 0.0, !has_ringers);
  plan.achieved_level_p10 = min_detection(deployed, 0.10, !has_ringers);
  return plan;
}

}  // namespace redund::core
