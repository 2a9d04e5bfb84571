#include "sim/hybrid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <span>

#include "sched/heft.hpp"
#include "sched/timing.hpp"
#include "sim/batched_sweep.hpp"
#include "sim/realization.hpp"
#include "util/error.hpp"

namespace rts {

HybridRunResult simulate_hybrid(const TaskGraph& graph, const Platform& platform,
                                const Schedule& plan, const Matrix<double>& expected,
                                const Matrix<double>& realized, double threshold) {
  RTS_REQUIRE(threshold >= 0.0, "threshold must be non-negative");
  const std::size_t n = graph.task_count();
  const std::size_t m = platform.proc_count();
  RTS_REQUIRE(expected.rows() == n && expected.cols() == m,
              "expected matrix has wrong shape");
  RTS_REQUIRE(realized.rows() == n && realized.cols() == m,
              "realized matrix has wrong shape");

  const TimingEvaluator evaluator(graph, platform, plan);
  const ScheduleTiming planned = evaluator.full_timing(assigned_durations(expected, plan));
  const ScheduleTiming actual = evaluator.full_timing(assigned_durations(realized, plan));
  const double slip_budget = threshold * planned.makespan;

  // Trigger: earliest realized completion that slips beyond the budget.
  double trigger = std::numeric_limits<double>::infinity();
  for (const TaskId t : id_range<TaskId>(n)) {
    if (actual.finish[t] > planned.finish[t] + slip_budget) {
      trigger = std::min(trigger, actual.finish[t]);
    }
  }

  if (!std::isfinite(trigger)) {
    // Plan held: pure static execution.
    return HybridRunResult{plan, actual.makespan, false, 0.0, 0};
  }

  // Freeze everything that had already started by the trigger instant under
  // the static execution; re-dispatch the rest online.
  IdVector<TaskId, bool> frozen(n, false);
  for (const TaskId t : id_range<TaskId>(n)) {
    frozen[t] = actual.start[t] <= trigger;
  }

  IdVector<TaskId, double> finish(n, 0.0);
  IdVector<TaskId, ProcId> proc_of(n, kNoProc);
  IdVector<ProcId, double> proc_avail(m, 0.0);
  ScheduleBuilder builder(n, m);
  double makespan = 0.0;
  for (const ProcId p : id_range<ProcId>(m)) {
    for (const TaskId t : plan.sequence(p)) {
      if (!frozen[t]) continue;
      builder.append(p, t);
      finish[t] = actual.finish[t];
      proc_of[t] = p;
      proc_avail[p] = std::max(proc_avail[p], actual.finish[t]);
      makespan = std::max(makespan, actual.finish[t]);
    }
  }

  // Online EFT over the unfrozen tasks (dispatch order: upward rank on the
  // planning costs; ready = all predecessors completed).
  const auto rank = heft_upward_ranks(graph, platform, expected);
  const auto cmp = [&rank](TaskId a, TaskId b) {
    const double ra = rank[a.index()];
    const double rb = rank[b.index()];
    if (ra != rb) return ra < rb;
    return a > b;
  };
  std::priority_queue<TaskId, std::vector<TaskId>, decltype(cmp)> ready(cmp);
  IdVector<TaskId, std::size_t> pending(n, 0);
  std::size_t redispatched = 0;
  for (const TaskId t : id_range<TaskId>(n)) {
    if (frozen[t]) continue;
    ++redispatched;
    std::size_t unfinished_preds = 0;
    for (const EdgeRef& e : graph.predecessors(t)) {
      if (!frozen[e.task]) ++unfinished_preds;
    }
    pending[t] = unfinished_preds;
    if (unfinished_preds == 0) ready.push(t);
  }

  while (!ready.empty()) {
    const TaskId t = ready.top();
    ready.pop();
    const auto earliest_start = [&](ProcId p) {
      // Re-dispatch decisions happen at/after the trigger instant.
      double es = std::max(proc_avail[p], trigger);
      for (const EdgeRef& e : graph.predecessors(t)) {
        es = std::max(es, finish[e.task] +
                              platform.comm_cost(e.data, proc_of[e.task], p));
      }
      return es;
    };
    ProcId best_p{0};
    double best_eft = earliest_start(best_p) + expected(t.index(), 0);
    for (ProcId p = 1; p.index() < m; ++p) {
      const double eft = earliest_start(p) + expected(t.index(), p.index());
      if (eft < best_eft) {
        best_eft = eft;
        best_p = p;
      }
    }
    const double start = earliest_start(best_p);
    finish[t] = start + realized(t.index(), best_p.index());
    proc_of[t] = best_p;
    proc_avail[best_p] = finish[t];
    builder.append(best_p, t);
    makespan = std::max(makespan, finish[t]);
    for (const EdgeRef& e : graph.successors(t)) {
      if (!frozen[e.task] && --pending[e.task] == 0) ready.push(e.task);
    }
  }

  // Sequence order per processor: frozen tasks (started <= trigger, in plan
  // order) precede all re-dispatched ones (started >= trigger, in dispatch
  // order), so the append order above is the execution order. The frozen set
  // is predecessor-closed — a frozen task's predecessors finished before it
  // started, hence started before the trigger themselves — so no edge runs
  // from an unfrozen task to a frozen one and the schedule is consistent.
  return HybridRunResult{std::move(builder).build(), makespan, true, trigger,
                         redispatched};
}

RobustnessReport evaluate_hybrid(const ProblemInstance& instance, const Schedule& plan,
                                 double threshold, const MonteCarloConfig& config,
                                 double* rescheduling_rate) {
  RTS_REQUIRE(config.realizations > 0, "need at least one realization");
  RTS_REQUIRE(threshold >= 0.0, "threshold must be non-negative");
  instance.validate();
  const std::size_t n = instance.task_count();
  const std::size_t m = instance.proc_count();
  const double m0 =
      compute_makespan(instance.graph, instance.platform, plan, instance.expected);

  // Hoist the plan compile + planned timing out of the realization loop
  // (simulate_hybrid recomputes both per call) and run the static execution
  // of `lane_width` realizations per batched pass. A lane whose every finish
  // stays within the slip budget never triggers a reschedule, and its
  // static makespan is bit-identical to simulate_hybrid's untripped result —
  // only tripped lanes fall back to the online re-dispatch. Trigger
  // detection compares the same bits as simulate_hybrid, so the tripped set
  // is identical too.
  std::vector<double> samples(config.realizations);
  std::vector<std::uint8_t> tripped(config.realizations, 0);
  const Rng root(config.seed);
  const TimingEvaluator evaluator(instance.graph, instance.platform, plan);
  const ScheduleTiming planned =
      evaluator.full_timing(assigned_durations(instance.expected, plan));
  const double slip_budget = threshold * planned.makespan;
  const BatchedGsSweep sweep(evaluator);
  const std::size_t lane_width = std::max<std::size_t>(1, config.lane_width);
  std::vector<std::size_t> assigned_proc(n);
  for (const TaskId t : id_range<TaskId>(n)) {
    assigned_proc[t.index()] = plan.proc_of(t).index();
  }

  struct Scratch {
    std::vector<Matrix<double>> realized;
    std::vector<double> durations;
    std::vector<double> finish;
    std::vector<double> makespans;
  };
  for_each_realization_block(
      config.realizations, lane_width, config.threads,
      [&] {
        return Scratch{std::vector<Matrix<double>>(lane_width, Matrix<double>(n, m)),
                       std::vector<double>(n * lane_width),
                       std::vector<double>(n * lane_width),
                       std::vector<double>(lane_width)};
      },
      [&](Scratch& s, std::size_t i0, std::size_t end) {
        const std::size_t lanes = end - i0;
        for (std::size_t l = 0; l < lanes; ++l) {
          // A realization's full n x m matrix does not depend on the lane it
          // lands in: the tripped fallback re-dispatches from it.
          Rng rng = root.substream(static_cast<std::uint64_t>(i0 + l));
          sample_realized_matrix(instance, rng, s.realized[l]);
          for (std::size_t t = 0; t < n; ++t) {
            s.durations[t * lanes + l] = s.realized[l](t, assigned_proc[t]);
          }
        }
        sweep.forward(std::span<const double>(s.durations).first(n * lanes), lanes,
                      s.finish, s.makespans);
        for (std::size_t l = 0; l < lanes; ++l) {
          bool trip = false;
          for (const TaskId t : id_range<TaskId>(n)) {
            if (s.finish[t.index() * lanes + l] > planned.finish[t] + slip_budget) {
              trip = true;
              break;
            }
          }
          if (!trip) {
            samples[i0 + l] = s.makespans[l];
            continue;
          }
          const auto run = simulate_hybrid(instance.graph, instance.platform, plan,
                                           instance.expected, s.realized[l], threshold);
          samples[i0 + l] = run.makespan;
          tripped[i0 + l] = run.rescheduled ? 1 : 0;
        }
      });

  if (rescheduling_rate != nullptr) {
    std::size_t trips = 0;
    for (const std::uint8_t t : tripped) trips += t;
    *rescheduling_rate =
        static_cast<double>(trips) / static_cast<double>(config.realizations);
  }
  return summarize_makespans(std::move(samples), m0, config.reciprocal_cap,
                             config.collect_samples);
}

}  // namespace rts
