#include "sim/dynamic.hpp"

#include <algorithm>
#include <queue>

#include "sched/heft.hpp"
#include "sim/realization.hpp"
#include "util/error.hpp"

namespace rts {

DynamicRunResult simulate_dynamic_eft(const TaskGraph& graph, const Platform& platform,
                                      const Matrix<double>& expected,
                                      const Matrix<double>& realized,
                                      const CompletionHook& hook) {
  const std::size_t n = graph.task_count();
  const std::size_t m = platform.proc_count();
  RTS_REQUIRE(expected.rows() == n && expected.cols() == m,
              "expected matrix has wrong shape");
  RTS_REQUIRE(realized.rows() == n && realized.cols() == m,
              "realized matrix has wrong shape");
  graph.validate();

  // Dispatch priority: HEFT upward ranks on the planning costs.
  const auto rank = heft_upward_ranks(graph, platform, expected);

  const auto cmp = [&rank](TaskId a, TaskId b) {
    const double ra = rank[a.index()];
    const double rb = rank[b.index()];
    if (ra != rb) return ra < rb;  // max-heap on rank
    return a > b;
  };
  std::priority_queue<TaskId, std::vector<TaskId>, decltype(cmp)> ready(cmp);

  IdVector<TaskId, std::size_t> pending(n);
  for (const TaskId t : id_range<TaskId>(n)) {
    pending[t] = graph.in_degree(t);
    if (pending[t] == 0) ready.push(t);
  }

  std::vector<double> start_of(n, 0.0);
  std::vector<double> finish_of(n, 0.0);
  double makespan = 0.0;
  ScheduleBuilder builder(n, m);
  IdVector<ProcId, double> proc_avail(m, 0.0);
  IdVector<TaskId, ProcId> proc_of(n, kNoProc);
  std::size_t completed = 0;

  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();

    // Earliest start of t on processor p given observed history.
    const auto earliest_start = [&](ProcId p) {
      double es = proc_avail[p];
      for (const EdgeRef& e : graph.predecessors(t)) {
        es = std::max(es, finish_of[e.task.index()] +
                              platform.comm_cost(e.data, proc_of[e.task], p));
      }
      return es;
    };

    // Decide with expected durations...
    ProcId best_p{0};
    double best_eft = earliest_start(best_p) + expected(t.index(), 0);
    for (ProcId p = 1; p.index() < m; ++p) {
      const double eft = earliest_start(p) + expected(t.index(), p.index());
      if (eft < best_eft) {
        best_eft = eft;
        best_p = p;
      }
    }
    // ...execute with the realized one.
    const double start = earliest_start(best_p);
    const double finish = start + realized(t.index(), best_p.index());
    start_of[t.index()] = start;
    finish_of[t.index()] = finish;
    makespan = std::max(makespan, finish);
    proc_avail[best_p] = finish;
    proc_of[t] = best_p;
    builder.append(best_p, t);
    ++completed;
    if (hook) {
      hook(CompletionEvent{t, best_p, start, finish, completed});
    }

    for (const EdgeRef& e : graph.successors(t)) {
      if (--pending[e.task] == 0) ready.push(e.task);
    }
  }
  RTS_REQUIRE(completed == n, "dispatcher stalled: task graph must be acyclic");
  return DynamicRunResult{std::move(builder).build(), makespan, std::move(start_of),
                          std::move(finish_of)};
}

RobustnessReport evaluate_dynamic_eft(const ProblemInstance& instance,
                                      const MonteCarloConfig& config) {
  RTS_REQUIRE(config.realizations > 0, "need at least one realization");
  instance.validate();
  const std::size_t n = instance.task_count();
  const std::size_t m = instance.proc_count();
  // The dispatcher's plan: its own execution when nothing deviates.
  const double m0 = simulate_dynamic_eft(instance.graph, instance.platform,
                                         instance.expected, instance.expected)
                        .makespan;

  std::vector<double> samples(config.realizations);
  const Rng root(config.seed);
  for_each_realization_block(
      config.realizations, 1, config.threads, [&] { return Matrix<double>(n, m); },
      [&](Matrix<double>& realized, std::size_t i, std::size_t) {
        Rng rng = root.substream(static_cast<std::uint64_t>(i));
        sample_realized_matrix(instance, rng, realized);
        samples[i] = simulate_dynamic_eft(instance.graph, instance.platform,
                                          instance.expected, realized)
                         .makespan;
      });
  return summarize_makespans(std::move(samples), m0, config.reciprocal_cap,
                             config.collect_samples);
}

}  // namespace rts
