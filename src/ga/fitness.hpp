#pragma once
// Objective functions of the GA (paper Sections 4.1, 4.2.3).
//
// Three modes:
//   * kMinimizeMakespan — Section 5.1's first experiment (Fig. 2);
//   * kMaximizeSlack    — Section 5.1's second experiment (Fig. 3);
//   * kEpsilonConstraint — the bi-objective formulation (Eqn. 7/8):
//     maximize average slack subject to M0 <= epsilon * M_HEFT, with the
//     population-based penalty fitness of Eqn. 8 for infeasible individuals.

#include <span>

namespace rts {

/// Which quantity the GA optimizes.
enum class ObjectiveKind {
  kMinimizeMakespan,
  kMaximizeSlack,
  kEpsilonConstraint,
  /// ε-constraint on the *effective* slack: each task contributes
  /// min(slack_i, kappa * sigma_i) where sigma_i is the stddev of its
  /// realized duration on the assigned processor — slack beyond what the
  /// uncertainty can consume earns nothing (stochastic-information-guided
  /// objective, the paper's Section 6 direction; see core/stochastic.hpp).
  kEpsilonConstraintEffective,
};

/// Cached evaluation of one chromosome (expected-cost quantities only; the
/// stochastic robustness of a finished schedule is measured by rts::sim).
struct Evaluation {
  double makespan = 0.0;   ///< M0 under Claim 3.2 semantics
  double avg_slack = 0.0;  ///< sigma bar (Eqn. 3)
  /// Mean of min(slack_i, kappa * sigma_i); only meaningful when the GA runs
  /// with duration-stddev information, 0 otherwise.
  double effective_slack = 0.0;
};

/// Compute the fitness of every individual for one generation. Larger is
/// always better. For kEpsilonConstraint this implements Eqn. 8 exactly:
/// feasible individuals (makespan <= epsilon * heft_makespan) score their
/// average slack; infeasible ones score
/// min{fitness of feasible} * epsilon * M_HEFT / M0, i.e. are ranked below
/// every feasible individual in proportion to their constraint violation.
/// When the generation has no feasible individual the fallback ranks by
/// epsilon * M_HEFT / M0 alone (see DESIGN.md). Writes fitness[i] for
/// evals[i] into the caller's buffer (same length), so the GA's generation
/// loop reuses one array.
void generation_fitness(std::span<const Evaluation> evals, ObjectiveKind objective,
                        double epsilon, double heft_makespan, std::span<double> fitness);

/// Feasibility under the ε-constraint (Eqn. 7; boundary inclusive so the
/// HEFT seed itself is feasible at epsilon = 1).
bool is_feasible(const Evaluation& eval, double epsilon, double heft_makespan);

/// Cross-generation comparison for best-so-far tracking and elitism:
/// returns true when `a` is strictly better than `b` under `objective`.
/// For kEpsilonConstraint: feasible beats infeasible; two feasibles compare
/// on slack (ties to smaller makespan); two infeasibles on smaller makespan.
bool better_than(const Evaluation& a, const Evaluation& b, ObjectiveKind objective,
                 double epsilon, double heft_makespan);

}  // namespace rts
