#pragma once
// Monte-Carlo robustness evaluation (paper Definitions 3.6 and 3.7):
//
//   relative tardiness  δ_i = max(0, M_i - M0) / M0   over realizations i,
//   R1 = 1 / E[δ],
//   miss rate           α  = |{i : M_i > M0}| / N,
//   R2 = 1 / α.
//
// M0 is the expected makespan — the Claim 3.2 evaluation of the schedule
// under the expected durations UL * BCET.
//
// Realizations are embarrassingly parallel; the sweep is OpenMP-parallel with
// one RNG substream per realization index, so results are bit-identical for a
// fixed seed regardless of thread count.
//
// When no realization is tardy both reciprocals are infinite; we report the
// documented finite cap `reciprocal_cap` instead so downstream log-ratio
// comparisons stay finite (raw tardiness and miss rate are always reported
// too — prefer them for arithmetic).

#include <cstdint>
#include <vector>

#include "sched/schedule.hpp"
#include "workload/problem.hpp"

namespace rts {

/// Knobs of the robustness evaluation.
struct MonteCarloConfig {
  std::size_t realizations = 1000;   ///< N, the paper uses 1000
  std::uint64_t seed = 42;           ///< substream root for the realizations
  double reciprocal_cap = 1e12;      ///< cap for R1/R2 when nothing is tardy
  bool collect_samples = false;      ///< keep all realized makespans
  /// OpenMP thread count for the realization sweep; 0 = the OpenMP runtime
  /// default (all hardware threads). Reports are bit-identical for any value
  /// (per-realization RNG substreams; see the header comment), so this is a
  /// pure performance knob. Ignored when built without OpenMP.
  std::size_t threads = 0;
  /// Realizations per pass of the lane-blocked sweep (sim/batched_sweep).
  /// Lanes never interact, so the report is bit-identical for every lane
  /// width and block size — both are pure performance knobs, checked
  /// against the one-realization-per-pass oracle in tests/sim. Widths
  /// 4/8/16/32 hit the fixed-width register-blocked kernels; other widths
  /// fall back to a generic lane loop with identical results. Keep it
  /// moderate: the finish working set is task_count * lane_width doubles
  /// and should stay cache-resident. 32 measures fastest on AVX-512 cores (four
  /// accumulator registers per row pipeline the max/+ chain) while the
  /// working set stays L1-resident for paper-scale graphs.
  std::size_t lane_width = 32;
  /// Realizations per parallel work block (rounded up to whole sweeps of
  /// `lane_width`); 0 picks a block automatically. Larger blocks amortize
  /// scheduling, smaller blocks balance load.
  std::size_t block_size = 0;
};

/// Aggregate result of one robustness evaluation.
struct RobustnessReport {
  double expected_makespan = 0.0;       ///< M0
  double mean_realized_makespan = 0.0;  ///< E[M_i]
  double stddev_realized_makespan = 0.0;
  double max_realized_makespan = 0.0;
  /// Distribution quantiles of the realized makespan (always computed; the
  /// tail quantiles are what deadline-driven users actually provision for).
  double p50_realized_makespan = 0.0;
  double p95_realized_makespan = 0.0;
  double p99_realized_makespan = 0.0;
  double mean_tardiness = 0.0;  ///< E[δ]
  double miss_rate = 0.0;       ///< α
  double r1 = 0.0;              ///< 1 / E[δ]  (capped)
  double r2 = 0.0;              ///< 1 / α     (capped)
  std::size_t realizations = 0;
  /// Realized makespans, only when MonteCarloConfig::collect_samples.
  std::vector<double> samples;
};

/// Evaluate the robustness of `schedule` on `instance`.
RobustnessReport evaluate_robustness(const ProblemInstance& instance,
                                     const Schedule& schedule,
                                     const MonteCarloConfig& config);

/// Reduce realized makespans `samples` (realization order) against the
/// expected makespan `m0` into a report: moments, quantiles, E[δ], α, and
/// R1/R2 capped at `reciprocal_cap`. Keeps the samples in the report when
/// `keep_samples`. The reduction is serial in realization order, so it is
/// bit-identical for a given sample vector.
RobustnessReport summarize_makespans(std::vector<double> samples, double m0,
                                     double reciprocal_cap, bool keep_samples);

}  // namespace rts
