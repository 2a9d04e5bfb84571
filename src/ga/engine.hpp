#pragma once
// The bi-objective genetic algorithm (paper Section 4.2).
//
// Pipeline per generation: systematic binary tournament selection (each
// individual enters exactly two tournaments), single-point crossover applied
// to a pc fraction of the intermediate population, precedence-window move
// mutation with probability pm per individual, then elitism (the weakest
// individual of the new population is replaced by the best seen so far).
// Initialization draws unique random chromosomes plus, optionally, the HEFT
// solution (Section 4.2.2). Stopping: max_iterations reached, or no
// improvement of the best solution over the last stagnation_window
// iterations (the paper uses 1000 / 100).

#include <cstdint>
#include <functional>
#include <optional>

#include "ga/chromosome.hpp"
#include "ga/eval.hpp"
#include "ga/fitness.hpp"
#include "sched/heft.hpp"
#include "util/matrix.hpp"

namespace rts {

/// GA hyper-parameters; defaults are the paper's Section 5 settings.
struct GaConfig {
  std::size_t population_size = 20;   ///< Np
  double crossover_prob = 0.9;        ///< pc
  double mutation_prob = 0.1;         ///< pm
  std::size_t max_iterations = 1000;
  std::size_t stagnation_window = 100;
  std::uint64_t seed = 1;
  ObjectiveKind objective = ObjectiveKind::kEpsilonConstraint;
  double epsilon = 1.0;       ///< ε of Eqn. 7 (kEpsilonConstraint only)
  bool seed_with_heft = true; ///< include the HEFT chromosome in generation 0
  bool elitism = true;        ///< ablation knob (paper: on)
  /// Record one history entry every `history_stride` iterations (plus the
  /// final one). 0 disables history.
  std::size_t history_stride = 1;
  /// Weight of the per-task stddev in the effective-slack objective: a task
  /// earns at most kappa * sigma of slack credit
  /// (kEpsilonConstraintEffective only).
  double effective_slack_kappa = 3.0;
  /// Threads for the population-evaluation loop; 0 = the OpenMP default
  /// (all hardware threads). Pure performance knob: results are
  /// bit-identical for any value (dense result array, serial reduction —
  /// same contract as MonteCarloConfig::threads).
  std::size_t threads = 0;
  /// Warm-start chromosomes injected into generation 0 alongside the HEFT
  /// seed (the online rescheduler passes the incumbent here). Each must be
  /// valid for the problem; duplicates of earlier seeds are skipped, and at
  /// most population_size seeds are taken.
  std::vector<Chromosome> seeds;
};

/// Snapshot of the best-so-far individual at one recorded iteration.
struct GaIterationRecord {
  std::size_t iteration = 0;
  double best_makespan = 0.0;   ///< M0 of the best-so-far individual
  double best_avg_slack = 0.0;  ///< sigma bar of the best-so-far individual
};

/// Final result of one GA run.
struct GaResult {
  Chromosome best;
  Evaluation best_eval;
  Schedule best_schedule;
  double heft_makespan = 0.0;  ///< M_HEFT reference used by the constraint
  std::size_t iterations = 0;  ///< generations actually executed
  std::vector<GaIterationRecord> history;
  /// Chromosomes actually scored (EvalWorkspace::evaluate calls), initial
  /// population included; a child equal to a pool member inherits its
  /// evaluation instead. Independent of GaConfig::threads.
  std::size_t evaluations = 0;
};

/// Observer invoked at every recorded iteration with the best-so-far
/// chromosome; the figure harnesses use it to Monte-Carlo-evaluate the
/// evolving schedule (paper Figs. 2-3).
using GaObserver =
    std::function<void(const GaIterationRecord&, const Chromosome& best)>;

/// Run the GA on (graph, platform, expected costs).
/// `costs(i, p)` is the expected duration of task i on processor p.
///
/// `duration_stddev` (optional, n x m) carries the stochastic information
/// for the kEpsilonConstraintEffective objective: the standard deviation of
/// task i's realized duration on processor p (see core/stochastic.hpp).
/// Required for that objective, ignored by the others.
///
/// `scratch` (optional) supplies the evaluation workspaces; the run rebinds
/// the pool to this problem and grows it to its thread count. Long-lived
/// callers (the scheduling service's workers) pass one pool per worker so
/// capacity is reused across jobs; pass nullptr for a run-local pool.
GaResult run_ga(const TaskGraph& graph, const Platform& platform,
                const Matrix<double>& costs, const GaConfig& config,
                const GaObserver& observer = nullptr,
                const Matrix<double>* duration_stddev = nullptr,
                EvalWorkspacePool* scratch = nullptr);

}  // namespace rts
