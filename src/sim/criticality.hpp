#pragma once
// Criticality analysis — the robustness perspective of Bölöni & Marinescu
// ("Robust scheduling of metaprograms", J. Scheduling 2002), which the
// paper's related-work section discusses: a schedule is robust when few of
// its components are critical, and the *entropy* of the criticality
// distribution measures how concentrated the risk is.
//
// Under each Monte-Carlo realization we mark every task lying on a critical
// path of the disjunctive graph (zero float given the realized durations).
// Aggregating over realizations yields:
//   * the per-task criticality index p_i = P(task i is critical),
//   * the expected number of critical tasks,
//   * the count of "safe" tasks (p_i below a threshold — Bölöni's safe
//     components),
//   * the normalized entropy of the distribution q_i = p_i / Σp_j, in [0,1]
//     (1 = risk evenly spread, 0 = one dominant failure path).

#include <cstdint>
#include <vector>

#include "sched/schedule.hpp"
#include "workload/problem.hpp"

namespace rts {

/// Knobs of the criticality analysis.
struct CriticalityConfig {
  std::size_t realizations = 1000;
  std::uint64_t seed = 42;
  /// A task with criticality index <= this is counted as safe.
  double safe_threshold = 0.05;
  /// Tolerance (relative to the makespan) when testing zero float.
  double float_tolerance = 1e-9;
  /// Realizations per forward+backward pass of the lane-blocked sweep
  /// (sim/batched_sweep). The report is bit-identical for any lane width
  /// (checked against the one-realization-per-pass oracle in tests/sim), so
  /// this is a pure performance knob, mirroring MonteCarloConfig.
  std::size_t lane_width = 32;
};

/// Aggregated criticality report.
struct CriticalityReport {
  std::vector<double> criticality_index;  ///< p_i per task
  double expected_critical_tasks = 0.0;   ///< E[#critical per realization]
  std::size_t safe_tasks = 0;             ///< #tasks with p_i <= threshold
  double normalized_entropy = 0.0;        ///< H(q) / log(n), in [0,1]
  std::size_t realizations = 0;
};

/// Monte-Carlo criticality analysis of `schedule` on `instance`.
/// Deterministic in the seed; realizations use the same generative model as
/// evaluate_robustness.
CriticalityReport analyze_criticality(const ProblemInstance& instance,
                                      const Schedule& schedule,
                                      const CriticalityConfig& config);

/// Tasks critical under one fixed duration vector (exposed for tests):
/// true for every task with zero float on the disjunctive graph.
std::vector<bool> critical_tasks(const TaskGraph& graph, const Platform& platform,
                                 const Schedule& schedule,
                                 std::span<const double> durations,
                                 double float_tolerance = 1e-9);

}  // namespace rts
