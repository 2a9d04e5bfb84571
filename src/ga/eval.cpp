#include "ga/eval.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rts {

EvalWorkspace::EvalWorkspace(const TaskGraph& graph, const Platform& platform,
                             const Matrix<double>& costs,
                             const Matrix<double>* duration_stddev,
                             double effective_slack_kappa) {
  bind(graph, platform, costs, duration_stddev, effective_slack_kappa);
}

void EvalWorkspace::bind(const TaskGraph& graph, const Platform& platform,
                         const Matrix<double>& costs,
                         const Matrix<double>* duration_stddev,
                         double effective_slack_kappa) {
  RTS_REQUIRE(costs.rows() == graph.task_count() &&
                  costs.cols() == platform.proc_count(),
              "cost matrix shape must match graph tasks x platform processors");
  if (duration_stddev != nullptr) {
    RTS_REQUIRE(duration_stddev->rows() == graph.task_count() &&
                    duration_stddev->cols() == platform.proc_count(),
                "duration stddev matrix has wrong shape");
    RTS_REQUIRE(effective_slack_kappa > 0.0, "kappa must be positive");
  }
  costs_ = &costs;
  stddev_ = duration_stddev;
  kappa_ = effective_slack_kappa;
  evaluator_.bind(graph, platform);
}

Evaluation EvalWorkspace::evaluate(const Chromosome& chromosome) {
  RTS_REQUIRE(bound(), "workspace is unbound; bind() a problem first");
  evaluator_.chromosome_timing_into(chromosome.order, chromosome.assignment, *costs_,
                                    timing_);
  return summarize(chromosome.assignment);
}

Evaluation EvalWorkspace::evaluate(const Schedule& schedule) {
  RTS_REQUIRE(bound(), "workspace is unbound; bind() a problem first");
  evaluator_.rebuild(schedule);
  const IdSpan<TaskId, const ProcId> assignment = schedule.assignment();
  const Matrix<double>& costs = *costs_;
  durations_.resize(assignment.size());
  for (const TaskId t : assignment.ids()) {
    durations_[t] = costs(t.index(), assignment[t].index());
  }
  evaluator_.full_timing_into(durations_, timing_);
  return summarize(assignment);
}

Evaluation EvalWorkspace::summarize(IdSpan<TaskId, const ProcId> assignment) const {
  const std::size_t n = assignment.size();
  Evaluation eval{timing_.makespan, timing_.average_slack, 0.0};
  if (stddev_ != nullptr) {
    // Effective slack: credit per task capped at kappa * sigma on its
    // assigned processor — surplus slack cannot absorb more delay than the
    // task's uncertainty can produce.
    double sum = 0.0;
    for (const TaskId t : id_range<TaskId>(n)) {
      sum += std::min(timing_.slack[t],
                      kappa_ * (*stddev_)(t.index(), assignment[t].index()));
    }
    eval.effective_slack = sum / static_cast<double>(n);
  }
  return eval;
}

void EvalWorkspacePool::bind(const TaskGraph& graph, const Platform& platform,
                             const Matrix<double>& costs,
                             const Matrix<double>* duration_stddev,
                             double effective_slack_kappa) {
  binding_ = Binding{&graph, &platform, &costs, duration_stddev,
                     effective_slack_kappa};
  for (const auto& ws : workspaces_) {
    ws->bind(graph, platform, costs, duration_stddev, effective_slack_kappa);
  }
}

void EvalWorkspacePool::reserve(std::size_t count) {
  RTS_REQUIRE(binding_.costs != nullptr, "pool is unbound; bind() a problem first");
  while (workspaces_.size() < count) {
    auto ws = std::make_unique<EvalWorkspace>(
        *binding_.graph, *binding_.platform, *binding_.costs, binding_.stddev,
        binding_.kappa);
    workspaces_.push_back(std::move(ws));
  }
}

EvalWorkspace& EvalWorkspacePool::workspace(std::size_t index) {
  RTS_REQUIRE(index < workspaces_.size(),
              "workspace index outside the reserved pool");
  return *workspaces_[index];
}

}  // namespace rts
