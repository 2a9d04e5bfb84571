#include "ga/local_search.hpp"

#include <algorithm>

#include "ga/eval.hpp"
#include "ga/operators.hpp"
#include "sched/heft.hpp"
#include "util/error.hpp"

namespace rts {

namespace {

/// True when `candidate` improves on `incumbent` under the bound.
bool improves(const Evaluation& candidate, const Evaluation& incumbent, double bound) {
  if (candidate.makespan > bound) return false;
  if (candidate.avg_slack != incumbent.avg_slack) {
    return candidate.avg_slack > incumbent.avg_slack;
  }
  return candidate.makespan < incumbent.makespan;
}

}  // namespace

LocalSearchResult run_slack_local_search(const TaskGraph& graph,
                                         const Platform& platform,
                                         const Matrix<double>& costs,
                                         const LocalSearchConfig& config) {
  RTS_REQUIRE(config.epsilon > 0.0, "epsilon must be positive");
  RTS_REQUIRE(config.max_passes >= 1, "need at least one pass");
  graph.validate();
  const std::size_t n = graph.task_count();
  const std::size_t m = platform.proc_count();
  Rng rng(config.seed);

  const ListScheduleResult heft = heft_schedule(graph, platform, costs);
  const double bound = config.epsilon * heft.makespan;

  // The neighbourhood scan scores O(n * m) candidates per pass; one reusable
  // workspace keeps that loop allocation-free.
  EvalWorkspace ws(graph, platform, costs);

  Chromosome current = config.seed_with_heft
                           ? encode_schedule(graph, platform, heft.schedule, costs)
                           : random_chromosome(graph, m, rng);
  Evaluation current_eval = ws.evaluate(current);

  LocalSearchResult result{current, current_eval,
                           decode(current, m), heft.makespan, 1, 0};

  std::vector<std::size_t> visit(n);
  for (std::size_t i = 0; i < n; ++i) visit[i] = i;
  IdVector<TaskId, std::size_t> positions;

  for (std::size_t pass = 0; pass < config.max_passes; ++pass) {
    bool improved_this_pass = false;
    // Shuffled visit order de-biases the first-improvement rule.
    for (std::size_t i = n; i > 1; --i) {
      std::swap(visit[i - 1], visit[static_cast<std::size_t>(rng.next_below(i))]);
    }

    for (const std::size_t ti : visit) {
      const auto t = static_cast<TaskId>(ti);

      // (a) Processor reassignment moves.
      const ProcId original_proc = current.assignment[t];
      for (const ProcId p : id_range<ProcId>(m)) {
        if (p == original_proc) continue;
        current.assignment[t] = p;
        const Evaluation candidate = ws.evaluate(current);
        ++result.evaluations;
        if (improves(candidate, current_eval, bound)) {
          current_eval = candidate;
          ++result.improvements;
          improved_this_pass = true;
          break;  // first improvement; keep the new assignment
        }
        current.assignment[t] = original_proc;
      }

      // (b) Window-shift moves: earliest and latest valid position.
      const auto pos_it = std::find(current.order.begin(), current.order.end(), t);
      const auto original_pos =
          static_cast<std::size_t>(pos_it - current.order.begin());
      current.order.erase(pos_it);
      const auto [lo, hi] = mutation_window(graph, current.order, t, positions);
      bool moved = false;
      for (const std::size_t target : {lo, hi}) {
        if (target == original_pos) continue;
        current.order.insert(current.order.begin() + static_cast<std::ptrdiff_t>(target),
                             t);
        const Evaluation candidate = ws.evaluate(current);
        ++result.evaluations;
        if (improves(candidate, current_eval, bound)) {
          current_eval = candidate;
          ++result.improvements;
          improved_this_pass = true;
          moved = true;
          break;
        }
        current.order.erase(current.order.begin() +
                            static_cast<std::ptrdiff_t>(target));
      }
      if (!moved) {
        current.order.insert(
            current.order.begin() + static_cast<std::ptrdiff_t>(original_pos), t);
      }
    }
    if (!improved_this_pass) break;
  }

  result.best = current;
  result.best_eval = current_eval;
  result.best_schedule = decode(current, m);
  return result;
}

}  // namespace rts
