#include "sched/timing.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rts {

namespace {

/// Per-task slack and its average (Eqn. 3) from finished sweeps.
void fill_slack(ScheduleTiming& out, std::size_t n) {
  double slack_sum = 0.0;
  for (const TaskId t : id_range<TaskId>(n)) {
    // Clamp tiny negative values from floating-point noise; by construction
    // Tl + Bl <= makespan.
    out.slack[t] = std::max(0.0, out.makespan - out.bottom_level[t] - out.start[t]);
    slack_sum += out.slack[t];
  }
  out.average_slack = slack_sum / static_cast<double>(n);
}

}  // namespace

TimingEvaluator::TimingEvaluator(const TaskGraph& graph, const Platform& platform)
    : graph_(&graph), platform_(&platform), n_(graph.task_count()) {}

TimingEvaluator::TimingEvaluator(const TaskGraph& graph, const Platform& platform,
                                 const Schedule& schedule)
    : TimingEvaluator(graph, platform) {
  rebuild(schedule);
}

void TimingEvaluator::bind(const TaskGraph& graph, const Platform& platform) {
  graph_ = &graph;
  platform_ = &platform;
  n_ = graph.task_count();
  compiled_ = false;
  graph_csr_ready_ = false;
}

void TimingEvaluator::rebuild(const Schedule& schedule) {
  RTS_REQUIRE(graph_ != nullptr, "evaluator is unbound; bind() a graph first");
  RTS_REQUIRE(schedule.task_count() == n_, "schedule size does not match graph");
  RTS_REQUIRE(schedule.proc_count() <= platform_->proc_count(),
              "schedule uses more processors than the platform provides");
  proc_pred_scratch_.resize(n_);
  for (const TaskId t : id_range<TaskId>(n_)) {
    proc_pred_scratch_[t] = schedule.proc_predecessor(t);
  }
  compile(schedule.assignment(), proc_pred_scratch_);
}

void TimingEvaluator::compile(IdSpan<TaskId, const ProcId> proc_of,
                              IdSpan<TaskId, const TaskId> proc_pred) {
  compiled_ = false;
  const TaskGraph& graph = *graph_;
  const Platform& platform = *platform_;

  // Gs adjacency = graph edges (costs via assigned processors) plus one
  // zero-cost edge from each task's processor predecessor, unless that
  // predecessor is already a graph predecessor (Def. 3.1: E' excludes E).
  // Built straight into CSR — counting pass, prefix sum, fill pass — so the
  // flat arrays are the only storage and a rebuild reuses their capacity.
  // Offsets accumulate in the 64-bit EdgeId domain: at million-task scale
  // the edge total is the first quantity past int32.
  pred_off_.assign(n_ + 1, EdgeId{0});
  for (const TaskId t : id_range<TaskId>(n_)) {
    auto deg = static_cast<std::int64_t>(graph.predecessors(t).size());
    const TaskId pp = proc_pred[t];
    if (pp != kNoTask && !graph.has_edge(pp, t)) ++deg;
    pred_off_[t.next()] = pred_off_[t].value() + deg;
  }
  const auto total = static_cast<std::size_t>(pred_off_.back().value());
  pred_task_.resize(total);
  pred_cost_.resize(total);
  for (const TaskId t : id_range<TaskId>(n_)) {
    const ProcId pt = proc_of[t];
    EdgeId k = pred_off_[t];
    for (const EdgeRef& e : graph.predecessors(t)) {
      pred_task_[k] = e.task;
      pred_cost_[k] = platform.comm_cost(e.data, proc_of[e.task], pt);
      ++k;
    }
    const TaskId pp = proc_pred[t];
    if (pp != kNoTask && !graph.has_edge(pp, t)) {
      pred_task_[k] = pp;
      pred_cost_[k] = 0.0;
    }
  }

  // Successor id mirror, needed only for Kahn's traversal here (the sweeps
  // run on the predecessor CSR alone).
  succ_off_.assign(n_ + 1, EdgeId{0});
  for (const TaskId p : pred_task_) ++succ_off_[p.next()];
  for (const TaskId t : id_range<TaskId>(n_)) {
    succ_off_[t.next()] = succ_off_[t.next()].value() + succ_off_[t].value();
  }
  succ_task_.resize(pred_task_.size());
  fill_.assign(succ_off_.begin(), succ_off_.end() - 1);
  for (const TaskId t : id_range<TaskId>(n_)) {
    const EdgeId end = pred_off_[t.next()];
    for (EdgeId k = pred_off_[t]; k < end; ++k) {
      const TaskId p = pred_task_[k];
      succ_task_[fill_[p]] = t;
      ++fill_[p];
    }
  }

  // Kahn over the CSR; also detects schedules inconsistent with precedence.
  indeg_.assign(n_, 0);
  for (const TaskId t : id_range<TaskId>(n_)) {
    indeg_[t] = pred_off_[t.next()].value() - pred_off_[t].value();
  }
  topo_.clear();
  topo_.reserve(n_);
  stack_.clear();
  for (const TaskId t : id_range<TaskId>(n_)) {
    if (indeg_[t] == 0) stack_.push_back(t);
  }
  while (!stack_.empty()) {
    const TaskId t = stack_.back();
    stack_.pop_back();
    topo_.push_back(t);
    const EdgeId end = succ_off_[t.next()];
    for (EdgeId k = succ_off_[t]; k < end; ++k) {
      const TaskId s = succ_task_[k];
      if (--indeg_[s] == 0) stack_.push_back(s);
    }
  }
  RTS_REQUIRE(topo_.size() == n_,
              "schedule sequences contradict the precedence constraints (cyclic Gs)");
  compiled_ = true;
}

void TimingEvaluator::compile_graph_csr() {
  const TaskGraph& graph = *graph_;
  graph_pred_off_.assign(n_ + 1, EdgeId{0});
  for (const TaskId t : id_range<TaskId>(n_)) {
    graph_pred_off_[t.next()] = graph_pred_off_[t].value() +
                                static_cast<std::int64_t>(graph.predecessors(t).size());
  }
  const auto total = static_cast<std::size_t>(graph_pred_off_.back().value());
  graph_pred_task_.resize(total);
  graph_pred_data_.resize(total);
  edge_cost_.resize(total);
  for (const TaskId t : id_range<TaskId>(n_)) {
    EdgeId k = graph_pred_off_[t];
    for (const EdgeRef& e : graph.predecessors(t)) {
      graph_pred_task_[k] = e.task;
      graph_pred_data_[k] = e.data;  // TaskGraph rejects negative data on write
      ++k;
    }
  }
  graph_csr_ready_ = true;
}

void TimingEvaluator::chromosome_timing_into(std::span<const TaskId> order,
                                             std::span<const ProcId> assignment,
                                             const Matrix<double>& costs,
                                             ScheduleTiming& out) {
  RTS_REQUIRE(graph_ != nullptr, "evaluator is unbound; bind() a graph first");
  RTS_REQUIRE(order.size() == n_, "order length must equal task count");
  RTS_REQUIRE(assignment.size() == n_, "assignment length must equal task count");
  const std::size_t m = platform_->proc_count();
  RTS_REQUIRE(costs.rows() == n_ && costs.cols() == m,
              "cost matrix shape must match graph tasks x platform processors");
  if (!graph_csr_ready_) compile_graph_csr();
  const Platform& platform = *platform_;
  const IdSpan<TaskId, const ProcId> proc_of{assignment};

  pos_.assign(n_, n_);
  last_on_proc_.assign(m, kNoTask);
  proc_pred_scratch_.resize(n_);
  durations_.resize(n_);
  out.start.resize(n_);
  out.finish.resize(n_);
  out.bottom_level.assign(n_, 0.0);
  out.slack.resize(n_);
  out.makespan = 0.0;

  // Forward sweep in `order`, validating as it goes. Every task is checked
  // (id in range, not seen before, processor in range) before its cost is
  // read; a graph predecessor must already have been placed, which is
  // exactly "every Gs edge points forward in `order`" (processor edges do by
  // construction), so `order` is a topological order of Gs and no Kahn sort
  // is needed. The predecessor's processor was validated when it was placed.
  for (std::size_t i = 0; i < n_; ++i) {
    const TaskId t = order[i];
    RTS_REQUIRE(t.valid() && t.index() < n_, "order references a task outside the graph");
    RTS_REQUIRE(pos_[t] == n_, "order lists a task twice");
    pos_[t] = i;
    const ProcId p = proc_of[t];
    RTS_REQUIRE(p.valid() && p.index() < m,
                "assignment references a processor outside the platform");
    double start = 0.0;
    const EdgeId end = graph_pred_off_[t.next()];
    for (EdgeId k = graph_pred_off_[t]; k < end; ++k) {
      const TaskId q = graph_pred_task_[k];
      RTS_REQUIRE(pos_[q] < i,
                  "schedule sequences contradict the precedence constraints (cyclic Gs)");
      const double cost = platform.comm_cost_unchecked(graph_pred_data_[k], proc_of[q], p);
      edge_cost_[k] = cost;
      start = std::max(start, out.finish[q] + cost);
    }
    // The processor-predecessor slot: a zero-cost Gs edge. When it is also a
    // graph edge that edge cost 0.0 too, so the repeat changes no bit.
    const TaskId pp = last_on_proc_[p];
    last_on_proc_[p] = t;
    proc_pred_scratch_[t] = pp;
    if (pp != kNoTask) start = std::max(start, out.finish[pp] + 0.0);
    const double duration = costs(t.index(), p.index());
    durations_[t] = duration;
    out.start[t] = start;
    out.finish[t] = start + duration;
    out.makespan = std::max(out.makespan, out.finish[t]);
  }

  // Backward sweep in reverse `order`, pushing each finalized bottom level
  // up into its predecessors (see full_timing_into), over the same edges.
  for (std::size_t i = n_; i-- > 0;) {
    const TaskId t = order[i];
    const double bl = out.bottom_level[t] + durations_[t];
    out.bottom_level[t] = bl;
    const EdgeId end = graph_pred_off_[t.next()];
    for (EdgeId k = graph_pred_off_[t]; k < end; ++k) {
      const TaskId q = graph_pred_task_[k];
      out.bottom_level[q] = std::max(out.bottom_level[q], edge_cost_[k] + bl);
    }
    const TaskId pp = proc_pred_scratch_[t];
    if (pp != kNoTask) out.bottom_level[pp] = std::max(out.bottom_level[pp], 0.0 + bl);
  }
  fill_slack(out, n_);
}

double TimingEvaluator::makespan(IdSpan<TaskId, const double> durations) const {
  std::vector<double> finish(n_);
  return makespan_into(durations, finish);
}

double TimingEvaluator::makespan_into(IdSpan<TaskId, const double> durations,
                                      IdSpan<TaskId, double> scratch_finish) const {
  RTS_REQUIRE(compiled_, "evaluator has no compiled schedule; rebuild() first");
  RTS_REQUIRE(durations.size() == n_, "duration vector length must equal task count");
  RTS_REQUIRE(scratch_finish.size() >= n_, "scratch buffer too small");
  double ms = 0.0;
  for (const TaskId t : topo_) {
    double start = 0.0;
    const EdgeId end = pred_off_[t.next()];
    for (EdgeId k = pred_off_[t]; k < end; ++k) {
      start = std::max(start, scratch_finish[pred_task_[k]] + pred_cost_[k]);
    }
    const double fin = start + durations[t];
    scratch_finish[t] = fin;
    ms = std::max(ms, fin);
  }
  return ms;
}

ScheduleTiming TimingEvaluator::full_timing(IdSpan<TaskId, const double> durations) const {
  ScheduleTiming out;
  full_timing_into(durations, out);
  return out;
}

void TimingEvaluator::full_timing_into(IdSpan<TaskId, const double> durations,
                                       ScheduleTiming& out) const {
  RTS_REQUIRE(compiled_, "evaluator has no compiled schedule; rebuild() first");
  RTS_REQUIRE(durations.size() == n_, "duration vector length must equal task count");
  out.start.assign(n_, 0.0);
  out.finish.assign(n_, 0.0);
  out.bottom_level.assign(n_, 0.0);
  out.slack.assign(n_, 0.0);
  out.makespan = 0.0;
  out.average_slack = 0.0;

  // Forward sweep: start time == top level Tl(i) (longest entry->i path,
  // node i excluded), finish = Tl(i) + duration.
  for (const TaskId t : topo_) {
    double start = 0.0;
    const EdgeId end = pred_off_[t.next()];
    for (EdgeId k = pred_off_[t]; k < end; ++k) {
      start = std::max(start, out.finish[pred_task_[k]] + pred_cost_[k]);
    }
    out.start[t] = start;
    out.finish[t] = start + durations[t];
    out.makespan = std::max(out.makespan, out.finish[t]);
  }

  // Backward sweep: Bl(i) = duration(i) + max over Gs successors of
  // (edge cost + Bl(succ)); exit tasks have Bl = duration. Runs on the
  // predecessor CSR: when task t is finalized in reverse topological order,
  // its tail contribution is pushed up into each predecessor's accumulator
  // (bottom_level doubles as the accumulator — every successor of p is
  // finalized before p is reached).
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const TaskId t = *it;
    const double bl = out.bottom_level[t] + durations[t];
    out.bottom_level[t] = bl;
    const EdgeId end = pred_off_[t.next()];
    for (EdgeId k = pred_off_[t]; k < end; ++k) {
      const TaskId p = pred_task_[k];
      out.bottom_level[p] = std::max(out.bottom_level[p], pred_cost_[k] + bl);
    }
  }

  fill_slack(out, n_);
}

std::vector<double> assigned_durations(const Matrix<double>& costs, const Schedule& schedule) {
  RTS_REQUIRE(costs.rows() == schedule.task_count(),
              "cost matrix rows must equal task count");
  IdVector<TaskId, double> durations(schedule.task_count());
  for (const TaskId t : id_range<TaskId>(schedule.task_count())) {
    const ProcId p = schedule.proc_of(t);
    RTS_REQUIRE(p.index() < costs.cols(),
                "assignment references processor outside the cost matrix");
    durations[t] = costs(t.index(), p.index());
  }
  return std::move(durations.raw());
}

ScheduleTiming compute_schedule_timing(const TaskGraph& graph, const Platform& platform,
                                       const Schedule& schedule, const Matrix<double>& costs) {
  const TimingEvaluator evaluator(graph, platform, schedule);
  return evaluator.full_timing(assigned_durations(costs, schedule));
}

double compute_makespan(const TaskGraph& graph, const Platform& platform,
                        const Schedule& schedule, const Matrix<double>& costs) {
  const TimingEvaluator evaluator(graph, platform, schedule);
  return evaluator.makespan(assigned_durations(costs, schedule));
}

}  // namespace rts
