#include "sim/monte_carlo.hpp"

#include <algorithm>
#include <array>

#include "sched/timing.hpp"
#include "sim/batched_sweep.hpp"
#include "sim/realization.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace rts {

RobustnessReport evaluate_robustness(const ProblemInstance& instance,
                                     const Schedule& schedule,
                                     const MonteCarloConfig& config) {
  RTS_REQUIRE(config.realizations > 0, "need at least one realization");
  const std::size_t n = instance.task_count();

  const TimingEvaluator evaluator(instance.graph, instance.platform, schedule);
  const RealizationSampler sampler(instance, schedule);
  const double m0 = evaluator.makespan(sampler.expected_durations());
  RTS_ENSURE(m0 > 0.0, "expected makespan must be positive");

  // Realized makespans land in a dense array at absolute realization
  // indices and are reduced serially afterwards. Each pass sweeps up to
  // `lane_width` realizations through the batched kernel; every lane draws
  // from its own RNG substream and combines exactly the scalar sweep's
  // operands in the same order, so samples[] is bit-identical to the
  // one-realization-per-pass oracle for any lane width, block size and
  // thread count. Blocks are whole lane groups.
  std::vector<double> samples(config.realizations);
  const Rng root(config.seed);
  const std::size_t lane_width = std::max<std::size_t>(1, config.lane_width);
  const std::size_t block =
      config.block_size > 0
          ? ((config.block_size + lane_width - 1) / lane_width) * lane_width
          : std::max<std::size_t>(lane_width, 64);
  const BatchedGsSweep sweep(evaluator);

  struct Scratch {
    std::vector<double> durations;
    std::vector<double> finish;
    std::vector<double> makespans;
  };
  for_each_realization_block(
      config.realizations, block, config.threads,
      [&] {
        return Scratch{std::vector<double>(n * lane_width),
                       std::vector<double>(n * lane_width),
                       std::vector<double>(lane_width)};
      },
      [&](Scratch& s, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; i += lane_width) {
          const std::size_t lanes = std::min(lane_width, end - i);
          sampler.sample_lanes(root, static_cast<std::uint64_t>(i), s.durations,
                               lanes);
          sweep.forward(std::span<const double>(s.durations).first(n * lanes),
                        lanes, s.finish, s.makespans);
          for (std::size_t l = 0; l < lanes; ++l) samples[i + l] = s.makespans[l];
        }
      });

  return summarize_makespans(std::move(samples), m0, config.reciprocal_cap,
                             config.collect_samples);
}

RobustnessReport summarize_makespans(std::vector<double> samples, double m0,
                                     double reciprocal_cap, bool keep_samples) {
  RTS_REQUIRE(!samples.empty(), "need at least one realization");
  RunningStats makespan_stats;
  RunningStats tardiness_stats;
  std::size_t misses = 0;
  for (const double mi : samples) {
    makespan_stats.add(mi);
    tardiness_stats.add(std::max(0.0, mi - m0) / m0);
    if (mi > m0) ++misses;
  }

  RobustnessReport report;
  // Selecting the quantiles reorders `samples` in place, so a kept copy is
  // taken first to stay in realization order.
  if (keep_samples) report.samples = samples;
  constexpr std::array<double, 3> kQuantiles{50.0, 95.0, 99.0};
  std::array<double, 3> quantiles{};
  percentiles(samples, kQuantiles, quantiles);

  report.realizations = samples.size();
  report.expected_makespan = m0;
  report.mean_realized_makespan = makespan_stats.mean();
  report.stddev_realized_makespan = makespan_stats.stddev();
  report.max_realized_makespan = makespan_stats.max();
  report.p50_realized_makespan = quantiles[0];
  report.p95_realized_makespan = quantiles[1];
  report.p99_realized_makespan = quantiles[2];
  report.mean_tardiness = tardiness_stats.mean();
  report.miss_rate =
      static_cast<double>(misses) / static_cast<double>(samples.size());
  report.r1 = report.mean_tardiness > 0.0
                  ? std::min(reciprocal_cap, 1.0 / report.mean_tardiness)
                  : reciprocal_cap;
  report.r2 = report.miss_rate > 0.0
                  ? std::min(reciprocal_cap, 1.0 / report.miss_rate)
                  : reciprocal_cap;
  return report;
}

}  // namespace rts
