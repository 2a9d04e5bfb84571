#pragma once
// Scalar reference sweeps: the differential-testing oracle for the batched
// lane-blocked Monte-Carlo estimators in src/sim. Each one draws realization
// i from `root.substream(i)` and evaluates it with one pass over Gs per
// realization, serially — the plainest implementation of the same
// estimator. The production estimators promise bit-identical reports for
// every lane width, block size and thread count; test_mc_batched,
// test_mc_golden, the rts_fuzz `differential=mc-batched-vs-scalar` property
// and the micro_montecarlo bit-identity gate all compare against these.

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sched/timing.hpp"
#include "sim/criticality.hpp"
#include "sim/hybrid.hpp"
#include "sim/monte_carlo.hpp"
#include "sim/realization.hpp"
#include "util/error.hpp"

namespace rts::oracle {

/// evaluate_robustness, one realization per TimingEvaluator sweep.
inline RobustnessReport scalar_robustness(const ProblemInstance& instance,
                                          const Schedule& schedule,
                                          const MonteCarloConfig& config) {
  RTS_REQUIRE(config.realizations > 0, "need at least one realization");
  const std::size_t n = instance.task_count();
  const TimingEvaluator evaluator(instance.graph, instance.platform, schedule);
  const RealizationSampler sampler(instance, schedule);
  const double m0 = evaluator.makespan(sampler.expected_durations());

  const Rng root(config.seed);
  std::vector<double> samples(config.realizations);
  std::vector<double> durations(n);
  std::vector<double> scratch(n);
  for (std::size_t i = 0; i < config.realizations; ++i) {
    Rng rng = root.substream(static_cast<std::uint64_t>(i));
    sampler.sample(rng, durations);
    samples[i] = evaluator.makespan_into(durations, scratch);
  }
  return summarize_makespans(std::move(samples), m0, config.reciprocal_cap,
                             config.collect_samples);
}

/// analyze_criticality, one full timing (forward + backward) per
/// realization.
inline CriticalityReport scalar_criticality(const ProblemInstance& instance,
                                            const Schedule& schedule,
                                            const CriticalityConfig& config) {
  RTS_REQUIRE(config.realizations > 0, "need at least one realization");
  const std::size_t n = instance.task_count();
  const TimingEvaluator evaluator(instance.graph, instance.platform, schedule);
  const RealizationSampler sampler(instance, schedule);

  const Rng root(config.seed);
  std::vector<std::uint64_t> counts(n, 0);
  std::uint64_t critical_total = 0;
  std::vector<double> durations(n);
  ScheduleTiming timing;
  for (std::size_t i = 0; i < config.realizations; ++i) {
    Rng rng = root.substream(static_cast<std::uint64_t>(i));
    sampler.sample(rng, durations);
    evaluator.full_timing_into(durations, timing);
    const double tol = config.float_tolerance * timing.makespan;
    for (const TaskId t : id_range<TaskId>(n)) {
      if (timing.slack[t] <= tol) {
        ++counts[t.index()];
        ++critical_total;
      }
    }
  }

  const auto total = static_cast<double>(config.realizations);
  CriticalityReport report;
  report.realizations = config.realizations;
  report.criticality_index.resize(n);
  double p_sum = 0.0;
  for (std::size_t t = 0; t < n; ++t) {
    report.criticality_index[t] = static_cast<double>(counts[t]) / total;
    p_sum += report.criticality_index[t];
    if (report.criticality_index[t] <= config.safe_threshold) ++report.safe_tasks;
  }
  report.expected_critical_tasks = static_cast<double>(critical_total) / total;
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

/// evaluate_hybrid, one simulate_hybrid call (plan compile, two full
/// timings, re-dispatch when tripped) per realization.
inline RobustnessReport scalar_hybrid(const ProblemInstance& instance,
                                      const Schedule& plan, double threshold,
                                      const MonteCarloConfig& config,
                                      double* rescheduling_rate) {
  RTS_REQUIRE(config.realizations > 0, "need at least one realization");
  const double m0 =
      compute_makespan(instance.graph, instance.platform, plan, instance.expected);

  const Rng root(config.seed);
  std::vector<double> samples(config.realizations);
  std::size_t trips = 0;
  Matrix<double> realized(instance.task_count(), instance.proc_count());
  for (std::size_t i = 0; i < config.realizations; ++i) {
    Rng rng = root.substream(static_cast<std::uint64_t>(i));
    sample_realized_matrix(instance, rng, realized);
    const HybridRunResult run = simulate_hybrid(instance.graph, instance.platform, plan,
                                                instance.expected, realized, threshold);
    samples[i] = run.makespan;
    if (run.rescheduled) ++trips;
  }
  *rescheduling_rate =
      static_cast<double>(trips) / static_cast<double>(config.realizations);
  return summarize_makespans(std::move(samples), m0, config.reciprocal_cap,
                             config.collect_samples);
}

}  // namespace rts::oracle
