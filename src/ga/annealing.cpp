#include "ga/annealing.hpp"

#include <algorithm>
#include <cmath>

#include "ga/eval.hpp"
#include "ga/operators.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace rts {

namespace {

struct EnergyModel {
  ObjectiveKind objective;
  double epsilon;
  double heft_makespan;
  double kappa;
  const Matrix<double>* stddev;

  // Energies are normalized by M_HEFT so the feasible (slack) and
  // infeasible (violation) branches live on the same dimensionless scale and
  // the auto-calibrated temperature transfers across instances. Feasible
  // states are <= 0, infeasible > 0, so feasibility always dominates.
  double operator()(const Evaluation& eval) const {
    switch (objective) {
      case ObjectiveKind::kMinimizeMakespan:
        return eval.makespan / heft_makespan;
      case ObjectiveKind::kMaximizeSlack:
        return -eval.avg_slack / heft_makespan;
      case ObjectiveKind::kEpsilonConstraint:
      case ObjectiveKind::kEpsilonConstraintEffective: {
        const double bound = epsilon * heft_makespan;
        if (eval.makespan > bound) {
          return (eval.makespan - bound) / bound;
        }
        return (objective == ObjectiveKind::kEpsilonConstraintEffective
                    ? -eval.effective_slack
                    : -eval.avg_slack) /
               heft_makespan;
      }
    }
    return 0.0;
  }
};

}  // namespace

SaResult run_simulated_annealing(const TaskGraph& graph, const Platform& platform,
                                 const Matrix<double>& costs, const SaConfig& config,
                                 const Matrix<double>* duration_stddev) {
  RTS_REQUIRE(config.iterations >= 1, "need at least one iteration");
  RTS_REQUIRE(config.final_temp_fraction > 0.0 && config.final_temp_fraction < 1.0,
              "final temperature fraction must lie in (0,1)");
  if (config.objective == ObjectiveKind::kEpsilonConstraintEffective) {
    RTS_REQUIRE(duration_stddev != nullptr,
                "the effective-slack objective needs the duration stddev matrix");
  } else {
    duration_stddev = nullptr;
  }
  graph.validate();

  Rng rng(config.seed);
  const ListScheduleResult heft = heft_schedule(graph, platform, costs);
  const EnergyModel energy{config.objective, config.epsilon, heft.makespan,
                           config.effective_slack_kappa, duration_stddev};

  // One reusable workspace scores the whole chain — the annealer evaluates
  // one neighbour at a time, so a single workspace amortizes everything.
  EvalWorkspace ws(graph, platform, costs, duration_stddev,
                   config.effective_slack_kappa);

  Chromosome current = config.seed_with_heft
                           ? encode_schedule(graph, platform, heft.schedule, costs)
                           : random_chromosome(graph, platform.proc_count(), rng);
  Evaluation current_eval = ws.evaluate(current);
  double current_energy = energy(current_eval);

  Chromosome best = current;
  Evaluation best_eval = current_eval;
  double best_energy = current_energy;
  IdVector<TaskId, std::size_t> mutation_positions;

  // Auto-calibrate T0 as the energy spread of a short random walk, so the
  // early phase accepts most moves regardless of the instance's scale.
  double t0 = config.initial_temperature;
  if (t0 <= 0.0) {
    RunningStats probe;
    Chromosome walker = current;
    for (int i = 0; i < 64; ++i) {
      mutate(walker, graph, platform.proc_count(), rng, mutation_positions);
      probe.add(energy(ws.evaluate(walker)));
    }
    t0 = std::max(probe.stddev(), 1e-9);
  }
  const double alpha =
      std::pow(config.final_temp_fraction, 1.0 / static_cast<double>(config.iterations));

  SaResult result{best, best_eval, decode(best, platform.proc_count()), heft.makespan,
                  0, 0};
  double temperature = t0;
  for (std::size_t iter = 0; iter < config.iterations; ++iter) {
    Chromosome neighbour = current;
    mutate(neighbour, graph, platform.proc_count(), rng, mutation_positions);
    const Evaluation neighbour_eval = ws.evaluate(neighbour);
    const double neighbour_energy = energy(neighbour_eval);

    const double delta = neighbour_energy - current_energy;
    if (delta <= 0.0 || rng.next_double() < std::exp(-delta / temperature)) {
      current = std::move(neighbour);
      current_eval = neighbour_eval;
      current_energy = neighbour_energy;
      ++result.accepted_moves;
      if (current_energy < best_energy) {
        best = current;
        best_eval = current_eval;
        best_energy = current_energy;
      }
    }
    temperature *= alpha;
  }

  result.best = best;
  result.best_eval = best_eval;
  result.best_schedule = decode(best, platform.proc_count());
  result.iterations = config.iterations;
  return result;
}

}  // namespace rts
