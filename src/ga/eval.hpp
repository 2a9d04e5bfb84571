#pragma once
// Reusable evaluation workspaces for the metaheuristic hot loops.
//
// Every solver in src/ga/ scores candidates the same way: time the
// chromosome on the disjunctive graph Gs with the forward/backward sweeps,
// and (for the stochastic objective) fold per-task slack through the
// kappa*sigma cap. The (graph, platform, costs) triple is fixed for the
// whole run — at the paper's GA budget (population 20 x up to 1000
// generations, Section 4.2) only the candidate changes.
//
// EvalWorkspace owns a TimingEvaluator that times a chromosome without
// compiling Gs: the graph's predecessor CSR is compiled once per bind(), and
// each candidate adds only one processor-predecessor slot per task
// (TimingEvaluator::chromosome_timing_into, sched/timing.hpp). With the
// timing scratch kept too, a steady-state evaluation performs zero
// allocations.
// EvalWorkspacePool hands one workspace to each OpenMP thread of the GA's
// parallel population evaluation and lets the service layer reuse the
// workspaces (and their grown capacity) across jobs.
//
// Determinism contract: evaluate() is a pure function of the bound inputs
// and the candidate — no RNG, no shared mutable state between workspaces —
// so a population evaluated in parallel into a dense result array is
// bit-identical for every thread count (same contract as
// sim::evaluate_robustness).

#include <memory>
#include <vector>

#include "ga/chromosome.hpp"
#include "ga/fitness.hpp"
#include "sched/timing.hpp"
#include "util/matrix.hpp"

namespace rts {

/// One thread's reusable evaluation state for a fixed
/// (graph, platform, costs[, stddev]) binding.
class EvalWorkspace {
 public:
  /// Unbound; bind() before use.
  EvalWorkspace() = default;

  /// `duration_stddev` (optional, n x m) enables the effective-slack
  /// computation: each task contributes min(slack, kappa * sigma) instead of
  /// its raw slack (kEpsilonConstraintEffective objective).
  EvalWorkspace(const TaskGraph& graph, const Platform& platform,
                const Matrix<double>& costs,
                const Matrix<double>* duration_stddev = nullptr,
                double effective_slack_kappa = 0.0);

  /// (Re)bind to a problem, keeping all buffer capacity. The referenced
  /// objects must outlive every subsequent evaluate() call.
  void bind(const TaskGraph& graph, const Platform& platform,
            const Matrix<double>& costs,
            const Matrix<double>* duration_stddev = nullptr,
            double effective_slack_kappa = 0.0);

  [[nodiscard]] bool bound() const noexcept { return costs_ != nullptr; }

  /// Score one chromosome: expected makespan, average slack, and (when bound
  /// with a stddev matrix) effective slack. Allocation-free at steady state.
  Evaluation evaluate(const Chromosome& chromosome);

  /// Same for an explicit schedule (HEFT seeds, service re-scoring).
  Evaluation evaluate(const Schedule& schedule);

  /// Full timing of the most recent evaluate() call (valid until the next).
  [[nodiscard]] const ScheduleTiming& last_timing() const noexcept { return timing_; }

 private:
  /// Evaluation from timing_: makespan, average slack and, when bound with
  /// a stddev matrix, effective slack.
  [[nodiscard]] Evaluation summarize(IdSpan<TaskId, const ProcId> assignment) const;

  const Matrix<double>* costs_ = nullptr;
  const Matrix<double>* stddev_ = nullptr;
  double kappa_ = 0.0;
  TimingEvaluator evaluator_;
  IdVector<TaskId, double> durations_;  // Schedule path only
  ScheduleTiming timing_;
};

/// A growable set of EvalWorkspaces, one per evaluating thread. Rebinding to
/// a new problem keeps every workspace's capacity, so a long-lived service
/// worker stops paying construction costs after its first few jobs.
class EvalWorkspacePool {
 public:
  /// (Re)bind every existing workspace and remember the binding for
  /// workspaces created later by reserve().
  void bind(const TaskGraph& graph, const Platform& platform,
            const Matrix<double>& costs,
            const Matrix<double>* duration_stddev = nullptr,
            double effective_slack_kappa = 0.0);

  /// Grow to at least `count` bound workspaces. Not thread-safe: size the
  /// pool before entering a parallel region.
  void reserve(std::size_t count);

  /// Workspace of thread `index` (< size()). References stay stable across
  /// reserve() calls.
  [[nodiscard]] EvalWorkspace& workspace(std::size_t index);

  [[nodiscard]] std::size_t size() const noexcept { return workspaces_.size(); }

 private:
  struct Binding {
    const TaskGraph* graph = nullptr;
    const Platform* platform = nullptr;
    const Matrix<double>* costs = nullptr;
    const Matrix<double>* stddev = nullptr;
    double kappa = 0.0;
  };
  Binding binding_;
  std::vector<std::unique_ptr<EvalWorkspace>> workspaces_;
};

}  // namespace rts
