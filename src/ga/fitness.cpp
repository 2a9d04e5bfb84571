#include "ga/fitness.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace rts {

bool is_feasible(const Evaluation& eval, double epsilon, double heft_makespan) {
  return eval.makespan <= epsilon * heft_makespan;
}

void generation_fitness(std::span<const Evaluation> evals, ObjectiveKind objective,
                        double epsilon, double heft_makespan, std::span<double> fitness) {
  RTS_REQUIRE(fitness.size() == evals.size(), "fitness buffer length must match evals");
  const bool effective = objective == ObjectiveKind::kEpsilonConstraintEffective;
  switch (objective) {
    case ObjectiveKind::kMinimizeMakespan:
      for (std::size_t i = 0; i < evals.size(); ++i) fitness[i] = -evals[i].makespan;
      return;
    case ObjectiveKind::kMaximizeSlack:
      for (std::size_t i = 0; i < evals.size(); ++i) fitness[i] = evals[i].avg_slack;
      return;
    case ObjectiveKind::kEpsilonConstraint:
    case ObjectiveKind::kEpsilonConstraintEffective:
      break;
  }

  RTS_REQUIRE(heft_makespan > 0.0, "epsilon constraint needs the HEFT makespan");
  RTS_REQUIRE(epsilon > 0.0, "epsilon must be positive");
  const double bound = epsilon * heft_makespan;

  const auto objective_value = [effective](const Evaluation& e) {
    return effective ? e.effective_slack : e.avg_slack;
  };
  double min_feasible = std::numeric_limits<double>::infinity();
  bool any_feasible = false;
  for (const Evaluation& e : evals) {
    if (e.makespan <= bound) {
      any_feasible = true;
      min_feasible = std::min(min_feasible, objective_value(e));
    }
  }
  // Eqn. 8's infeasible branch, min_feasible * bound / M0, collapses when
  // the weakest feasible objective value is 0 (common early under a tight
  // ε, where the only feasible individual is the zero-slack HEFT seed):
  // every infeasible individual then scores exactly 0 no matter how large
  // its violation, erasing the selection gradient. We use the algebraically
  // identical form  min_feasible - scale * (1 - bound / M0)  with the scale
  // floored away from 0, so infeasible fitness always sits strictly below
  // every feasible value and still decreases with the violation M0.
  constexpr double kInfeasibleScaleFloor = 1e-3;  // in units of the bound
  const double infeasible_scale =
      std::max(min_feasible, kInfeasibleScaleFloor * bound);
  for (std::size_t i = 0; i < evals.size(); ++i) {
    if (evals[i].makespan <= bound) {
      fitness[i] = objective_value(evals[i]);  // Eqn. 8, feasible branch
    } else if (any_feasible) {
      // Eqn. 8, infeasible branch: scaled below the weakest feasible
      // individual, shrinking with the violation (bound / M0 < 1).
      fitness[i] =
          min_feasible - infeasible_scale * (1.0 - bound / evals[i].makespan);
    } else {
      // Fallback (no feasible individual this generation): rank purely by
      // constraint violation; converges to Eqn. 8 once one appears.
      fitness[i] = bound / evals[i].makespan;
    }
  }
}

bool better_than(const Evaluation& a, const Evaluation& b, ObjectiveKind objective,
                 double epsilon, double heft_makespan) {
  switch (objective) {
    case ObjectiveKind::kMinimizeMakespan:
      return a.makespan < b.makespan;
    case ObjectiveKind::kMaximizeSlack:
      if (a.avg_slack != b.avg_slack) return a.avg_slack > b.avg_slack;
      return a.makespan < b.makespan;
    case ObjectiveKind::kEpsilonConstraint: {
      const bool fa = is_feasible(a, epsilon, heft_makespan);
      const bool fb = is_feasible(b, epsilon, heft_makespan);
      if (fa != fb) return fa;
      if (!fa) return a.makespan < b.makespan;
      if (a.avg_slack != b.avg_slack) return a.avg_slack > b.avg_slack;
      return a.makespan < b.makespan;
    }
    case ObjectiveKind::kEpsilonConstraintEffective: {
      const bool fa = is_feasible(a, epsilon, heft_makespan);
      const bool fb = is_feasible(b, epsilon, heft_makespan);
      if (fa != fb) return fa;
      if (!fa) return a.makespan < b.makespan;
      if (a.effective_slack != b.effective_slack) {
        return a.effective_slack > b.effective_slack;
      }
      if (a.avg_slack != b.avg_slack) return a.avg_slack > b.avg_slack;
      return a.makespan < b.makespan;
    }
  }
  return false;
}

}  // namespace rts
