#include "sim/criticality.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "sched/timing.hpp"
#include "sim/batched_sweep.hpp"
#include "sim/realization.hpp"
#include "util/error.hpp"

namespace rts {

std::vector<bool> critical_tasks(const TaskGraph& graph, const Platform& platform,
                                 const Schedule& schedule,
                                 std::span<const double> durations,
                                 double float_tolerance) {
  const TimingEvaluator evaluator(graph, platform, schedule);
  const ScheduleTiming timing = evaluator.full_timing(durations);
  std::vector<bool> critical(graph.task_count(), false);
  const double tol = float_tolerance * timing.makespan;
  for (const TaskId t : id_range<TaskId>(graph.task_count())) {
    critical[t.index()] = timing.slack[t] <= tol;
  }
  return critical;
}

CriticalityReport analyze_criticality(const ProblemInstance& instance,
                                      const Schedule& schedule,
                                      const CriticalityConfig& config) {
  RTS_REQUIRE(config.realizations > 0, "need at least one realization");
  RTS_REQUIRE(config.safe_threshold >= 0.0 && config.safe_threshold <= 1.0,
              "safe threshold must lie in [0,1]");
  instance.validate();
  const std::size_t n = instance.task_count();

  const TimingEvaluator evaluator(instance.graph, instance.platform, schedule);
  const RealizationSampler sampler(instance, schedule);

  // Per-realization flags filled in parallel by lane-blocked forward+
  // backward sweeps (`lane_width` realizations per pass over Gs), reduced
  // serially — deterministic for a fixed seed regardless of thread count.
  // Lane slack values are bit-identical to full_timing_into's, so the flags
  // match the one-realization-per-pass oracle exactly (same tol comparison
  // against the same bits).
  std::vector<std::uint32_t> counts(n, 0);
  std::vector<std::uint64_t> total_critical_per_real(config.realizations, 0);
  std::vector<std::uint8_t> critical_flags(n * config.realizations, 0);

  const Rng root(config.seed);
  const BatchedGsSweep sweep(evaluator);
  const std::size_t lane_width = std::max<std::size_t>(1, config.lane_width);

  struct Scratch {
    std::vector<double> durations, start, finish, bottom, slack, makespans;
  };
  for_each_realization_block(
      config.realizations, lane_width, /*threads=*/0,
      [&] {
        const std::vector<double> lanes(n * lane_width);
        return Scratch{lanes, lanes, lanes, lanes, lanes,
                       std::vector<double>(lane_width)};
      },
      [&](Scratch& s, std::size_t i0, std::size_t end) {
        const std::size_t lanes = end - i0;
        sampler.sample_lanes(root, static_cast<std::uint64_t>(i0), s.durations,
                             lanes);
        sweep.forward_backward(std::span<const double>(s.durations).first(n * lanes),
                               lanes, s.start, s.finish, s.bottom, s.slack,
                               s.makespans);
        for (std::size_t l = 0; l < lanes; ++l) {
          const double tol = config.float_tolerance * s.makespans[l];
          std::uint64_t count = 0;
          for (std::size_t t = 0; t < n; ++t) {
            const bool crit = s.slack[t * lanes + l] <= tol;
            critical_flags[(i0 + l) * n + t] = crit ? 1 : 0;
            count += crit ? 1 : 0;
          }
          total_critical_per_real[i0 + l] = count;
        }
      });
  for (std::size_t i = 0; i < config.realizations; ++i) {
    for (std::size_t t = 0; t < n; ++t) {
      counts[t] += critical_flags[i * n + t];
    }
  }

  CriticalityReport report;
  report.realizations = config.realizations;
  report.criticality_index.resize(n);
  double p_sum = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    report.criticality_index[t] =
        static_cast<double>(counts[t]) / static_cast<double>(config.realizations);
    p_sum += report.criticality_index[t];
    if (report.criticality_index[t] <= config.safe_threshold) ++report.safe_tasks;
  }
  std::uint64_t critical_total = 0;
  for (const std::uint64_t c : total_critical_per_real) critical_total += c;
  report.expected_critical_tasks =
      static_cast<double>(critical_total) / static_cast<double>(config.realizations);

  // Normalized entropy of q_i = p_i / sum(p). A schedule whose risk always
  // funnels through the same chain scores near 0.
  if (p_sum > 0.0 && n > 1) {
    double entropy = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      const double q = report.criticality_index[t] / p_sum;
      if (q > 0.0) entropy -= q * std::log(q);
    }
    report.normalized_entropy = entropy / std::log(static_cast<double>(n));
  }
  return report;
}

}  // namespace rts
