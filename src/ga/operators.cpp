#include "ga/operators.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rts {

namespace {

/// Offspring scheduling string: keep `keeper`'s [0, cut), then the rest in
/// their relative order in `pattern`. Written in place into `child`.
void cross_order(std::span<const TaskId> keeper, std::span<const TaskId> pattern,
                 std::size_t cut, std::vector<TaskId>& child,
                 IdVector<TaskId, std::uint8_t>& in_left) {
  const std::size_t n = keeper.size();
  child.resize(n);
  in_left.assign(n, 0);
  for (std::size_t i = 0; i < cut; ++i) {
    child[i] = keeper[i];
    in_left[keeper[i]] = 1;
  }
  std::size_t k = cut;
  for (const TaskId t : pattern) {
    if (in_left[t] != 0) continue;
    RTS_ENSURE(k < n, "crossover duplicated tasks");
    child[k++] = t;
  }
  RTS_ENSURE(k == n, "crossover lost tasks");
}

}  // namespace

void crossover(const Chromosome& parent_a, const Chromosome& parent_b, Rng& rng,
               Chromosome& child_a, Chromosome& child_b,
               IdVector<TaskId, std::uint8_t>& mask) {
  const std::size_t n = parent_a.order.size();
  RTS_REQUIRE(n > 0 && parent_b.order.size() == n &&
                  parent_a.assignment.size() == n && parent_b.assignment.size() == n,
              "crossover parents must encode the same task set");
  RTS_REQUIRE(&child_a != &child_b && &child_a != &parent_a && &child_a != &parent_b &&
                  &child_b != &parent_a && &child_b != &parent_b,
              "crossover offspring must not alias each other or the parents");

  // Cut in [1, n-1] so both sides are non-trivial (n == 1 degenerates to a
  // copy).
  const std::size_t order_cut =
      n > 1 ? 1 + static_cast<std::size_t>(rng.next_below(n - 1)) : 1;
  cross_order(parent_a.order, parent_b.order, order_cut, child_a.order, mask);
  cross_order(parent_b.order, parent_a.order, order_cut, child_b.order, mask);

  // Assignment tails swap at an independent cut over task ids.
  const std::size_t assign_cut =
      n > 1 ? 1 + static_cast<std::size_t>(rng.next_below(n - 1)) : 1;
  child_a.assignment = parent_a.assignment;
  child_b.assignment = parent_b.assignment;
  for (TaskId t = static_cast<TaskId>(assign_cut); t.index() < n; ++t) {
    std::swap(child_a.assignment[t], child_b.assignment[t]);
  }
}

std::pair<std::size_t, std::size_t> mutation_window(const TaskGraph& graph,
                                                    std::span<const TaskId> order_without_v,
                                                    TaskId v,
                                                    IdVector<TaskId, std::size_t>& positions) {
  // positions[t] = index of task t in the order (v's own entry is stale and
  // never read: a task is not its own neighbour).
  positions.resize(graph.task_count());
  for (std::size_t i = 0; i < order_without_v.size(); ++i) {
    positions[order_without_v[i]] = i;
  }
  // Insertion index lo..hi (inclusive); inserting at index i places v before
  // the task currently at i. All immediate predecessors must stay before v
  // and all immediate successors after it.
  std::size_t lo = 0;
  std::size_t hi = order_without_v.size();  // == append
  for (const EdgeRef& e : graph.predecessors(v)) {
    lo = std::max(lo, positions[e.task] + 1);
  }
  for (const EdgeRef& e : graph.successors(v)) {
    hi = std::min(hi, positions[e.task]);
  }
  RTS_ENSURE(lo <= hi, "empty mutation window on a valid scheduling string");
  return {lo, hi};
}

void mutate(Chromosome& chromosome, const TaskGraph& graph, std::size_t proc_count,
            Rng& rng, IdVector<TaskId, std::size_t>& positions) {
  const std::size_t n = chromosome.order.size();
  RTS_REQUIRE(n == graph.task_count(), "chromosome does not match graph");

  const TaskId v = chromosome.order[static_cast<std::size_t>(rng.next_below(n))];

  // Remove v, then re-insert within its precedence window.
  auto& order = chromosome.order;
  order.erase(std::find(order.begin(), order.end(), v));
  const auto [lo, hi] = mutation_window(graph, order, v, positions);
  const std::size_t target =
      lo + static_cast<std::size_t>(rng.next_below(hi - lo + 1));
  order.insert(order.begin() + static_cast<std::ptrdiff_t>(target), v);

  // Random processor; per-processor order stays derived from the scheduling
  // string, which is exactly the paper's re-insertion rule.
  chromosome.assignment[v] = static_cast<ProcId>(rng.next_below(proc_count));
}

}  // namespace rts
