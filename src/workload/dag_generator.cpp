#include "workload/dag_generator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace rts {

std::vector<std::size_t> draw_level_sizes(const DagGeneratorParams& params, Rng& rng) {
  RTS_REQUIRE(params.task_count > 0, "task count must be positive");
  RTS_REQUIRE(params.shape_alpha > 0.0, "shape alpha must be positive");
  const double sqrt_n = std::sqrt(static_cast<double>(params.task_count));

  // Height ~ U(1, 2*sqrt(n)/alpha) (mean sqrt(n)/alpha, Topcuoglu-style),
  // capped by the task count so every level can be non-empty.
  const double mean_height = sqrt_n / params.shape_alpha;
  auto height = static_cast<std::size_t>(
      sample_uniform_int(rng, 1, std::max<std::int64_t>(1, std::llround(2.0 * mean_height))));
  height = std::min(height, params.task_count);

  // Widths ~ U(1, 2*alpha*sqrt(n)) per level, then rescaled to sum to n while
  // keeping every level >= 1 task.
  const double mean_width = params.shape_alpha * sqrt_n;
  std::vector<double> raw(height);
  double raw_sum = 0.0;
  for (auto& w : raw) {
    w = static_cast<double>(
        sample_uniform_int(rng, 1, std::max<std::int64_t>(1, std::llround(2.0 * mean_width))));
    raw_sum += w;
  }

  std::vector<std::size_t> sizes(height, 1);
  std::size_t assigned = height;
  // Distribute the remaining n - height tasks proportionally to the raw
  // widths (largest-remainder style, deterministic given the draw).
  const std::size_t remaining = params.task_count - std::min(params.task_count, height);
  std::vector<double> fractional(height);
  for (std::size_t l = 0; l < height; ++l) {
    const double share = raw[l] / raw_sum * static_cast<double>(remaining);
    const auto whole = static_cast<std::size_t>(share);
    sizes[l] += whole;
    assigned += whole;
    fractional[l] = share - static_cast<double>(whole);
  }
  // Hand out the leftover units to the largest fractional shares.
  std::vector<std::size_t> order(height);
  for (std::size_t l = 0; l < height; ++l) order[l] = l;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return fractional[a] > fractional[b]; });
  for (std::size_t k = 0; assigned < params.task_count; ++k, ++assigned) {
    sizes[order[k % height]] += 1;
  }
  RTS_ENSURE(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}) == params.task_count,
             "level sizes must sum to the task count");
  return sizes;
}

TaskGraph generate_random_dag(const DagGeneratorParams& params, const Platform& platform,
                              Rng& rng) {
  RTS_REQUIRE(params.ccr >= 0.0, "ccr must be non-negative");
  RTS_REQUIRE(params.avg_comp_cost > 0.0, "average computation cost must be positive");
  RTS_REQUIRE(params.jump >= 1, "jump must be at least 1");

  const auto sizes = draw_level_sizes(params, rng);
  const std::size_t height = sizes.size();

  // Tasks are numbered level by level; level_start[l] is the first id of
  // level l.
  std::vector<std::size_t> level_start(height + 1, 0);
  for (std::size_t l = 0; l < height; ++l) level_start[l + 1] = level_start[l] + sizes[l];

  TaskGraph graph(params.task_count);

  // Mean data size such that the platform-average communication cost of an
  // edge equals ccr * avg_comp_cost. Data ~ U(0, 2*mean) keeps the mean while
  // varying individual transfers. With a single processor no communication
  // ever happens; data sizes are zero.
  const double avg_rate = platform.average_transfer_rate();
  const double mean_data = std::isinf(avg_rate)
                               ? 0.0
                               : params.ccr * params.avg_comp_cost * avg_rate;

  const auto draw_data = [&]() {
    // rts-analyze: allow(no-float-eq) — exact-zero mean disables data flow.
    return mean_data == 0.0 ? 0.0 : sample_uniform(rng, 0.0, 2.0 * mean_data);
  };

  for (std::size_t l = 1; l < height; ++l) {
    const std::size_t lo_level = l >= params.jump ? l - params.jump : 0;
    const std::size_t pool_lo = level_start[lo_level];
    const std::size_t pool_hi = level_start[l];  // exclusive
    const std::size_t pool = pool_hi - pool_lo;
    for (std::size_t t = level_start[l]; t < level_start[l + 1]; ++t) {
      // 1..max_in_degree distinct predecessors from the reachable window.
      const auto want = static_cast<std::size_t>(sample_uniform_int(
          rng, 1, static_cast<std::int64_t>(std::min(params.max_in_degree, pool))));
      std::size_t added = 0;
      std::size_t attempts = 0;
      while (added < want && attempts < 8 * want) {
        ++attempts;
        const auto src =
            pool_lo + static_cast<std::size_t>(rng.next_below(pool));
        if (!graph.has_edge(static_cast<TaskId>(src), static_cast<TaskId>(t))) {
          graph.add_edge(static_cast<TaskId>(src), static_cast<TaskId>(t), draw_data());
          ++added;
        }
      }
      RTS_ENSURE(added >= 1, "non-entry task must receive at least one predecessor");
    }
  }
  return graph;
}

}  // namespace rts
