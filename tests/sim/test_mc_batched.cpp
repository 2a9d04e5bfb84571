// Differential tests of the batched lane-blocked Monte-Carlo sweeps
// (sim/batched_sweep) against the scalar oracles in scalar_oracle.hpp. The
// batched kernels promise BIT-identical results for every lane width, block
// size and thread count — every comparison here is EXPECT_EQ on doubles,
// never EXPECT_NEAR.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "scalar_oracle.hpp"
#include "sched/random_scheduler.hpp"
#include "sim/batched_sweep.hpp"
#include "workload/uncertainty.hpp"

namespace rts {
namespace {

struct SeededCase {
  ProblemInstance instance;
  Schedule schedule;
};

SeededCase make_case(std::uint64_t seed, std::size_t n = 24, std::size_t m = 4) {
  ProblemInstance instance = testing::small_instance(n, m, 3.0, seed);
  Rng rng(seed ^ 0x5eedULL);
  Schedule schedule =
      random_schedule(instance.graph, instance.platform, instance.expected, rng)
          .schedule;
  return SeededCase{std::move(instance), std::move(schedule)};
}

RobustnessReport scalar_reference(const SeededCase& c, std::size_t realizations) {
  MonteCarloConfig config;
  config.realizations = realizations;
  config.collect_samples = true;
  return oracle::scalar_robustness(c.instance, c.schedule, config);
}

void expect_reports_identical(const RobustnessReport& a, const RobustnessReport& b) {
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.expected_makespan, b.expected_makespan);
  EXPECT_EQ(a.mean_realized_makespan, b.mean_realized_makespan);
  EXPECT_EQ(a.stddev_realized_makespan, b.stddev_realized_makespan);
  EXPECT_EQ(a.max_realized_makespan, b.max_realized_makespan);
  EXPECT_EQ(a.p50_realized_makespan, b.p50_realized_makespan);
  EXPECT_EQ(a.p95_realized_makespan, b.p95_realized_makespan);
  EXPECT_EQ(a.p99_realized_makespan, b.p99_realized_makespan);
  EXPECT_EQ(a.mean_tardiness, b.mean_tardiness);
  EXPECT_EQ(a.miss_rate, b.miss_rate);
  EXPECT_EQ(a.r1, b.r1);
  EXPECT_EQ(a.r2, b.r2);
}

// The satellite contract: (lane width in {1,4,8,16}) x (threads in {1,2,8})
// x 50 seeded instances, batched bit-identical to the scalar oracle. The
// realization count is deliberately not a lane-width multiple so every lane
// width exercises a partial tail group.
TEST(McBatched, BitIdenticalToScalarAcrossLanesThreadsAndInstances) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const SeededCase c = make_case(seed);
    const RobustnessReport oracle = scalar_reference(c, 101);
    for (const std::size_t lanes : {1u, 4u, 8u, 16u}) {
      for (const std::size_t threads : {1u, 2u, 8u}) {
        MonteCarloConfig config;
        config.realizations = 101;
        config.collect_samples = true;
        config.lane_width = lanes;
        config.threads = threads;
        const auto batched = evaluate_robustness(c.instance, c.schedule, config);
        expect_reports_identical(oracle, batched);
      }
    }
  }
}

TEST(McBatched, BlockSizeIsBitwiseNeutral) {
  const SeededCase c = make_case(99);
  const RobustnessReport oracle = scalar_reference(c, 257);
  for (const std::size_t block : {1u, 7u, 64u, 1000u}) {
    MonteCarloConfig config;
    config.realizations = 257;
    config.collect_samples = true;
    config.block_size = block;
    const auto batched = evaluate_robustness(c.instance, c.schedule, config);
    expect_reports_identical(oracle, batched);
  }
}

TEST(McBatched, ReciprocalCapPathMatchesScalar) {
  // UL == 1 everywhere: every realization lands exactly on M0, nothing is
  // tardy, and both sweeps must hit the documented reciprocal_cap.
  SeededCase c = make_case(7);
  for (std::size_t t = 0; t < c.instance.ul.rows(); ++t) {
    for (std::size_t p = 0; p < c.instance.ul.cols(); ++p) {
      c.instance.ul(t, p) = 1.0;
    }
  }
  c.instance.expected = expected_costs(c.instance.bcet, c.instance.ul);
  Rng rng(7);
  c.schedule =
      random_schedule(c.instance.graph, c.instance.platform, c.instance.expected, rng)
          .schedule;

  MonteCarloConfig config;
  config.realizations = 200;
  config.collect_samples = true;
  config.reciprocal_cap = 1e7;
  const auto scalar = oracle::scalar_robustness(c.instance, c.schedule, config);
  const auto batched = evaluate_robustness(c.instance, c.schedule, config);
  expect_reports_identical(scalar, batched);
  EXPECT_EQ(batched.r1, 1e7);
  EXPECT_EQ(batched.r2, 1e7);
  EXPECT_EQ(batched.miss_rate, 0.0);
}

TEST(McBatched, ZeroCostEdgeGraphMatchesScalar) {
  // All edge payloads zero: every Gs edge (graph and processor-order alike)
  // carries cost 0, the degenerate case where relaxation reduces to a pure
  // max over predecessor finishes.
  SeededCase c = make_case(13);
  TaskGraph zero_graph(c.instance.graph.task_count());
  for (std::size_t t = 0; t < c.instance.graph.task_count(); ++t) {
    for (const EdgeRef& e : c.instance.graph.successors(static_cast<TaskId>(t))) {
      zero_graph.add_edge(static_cast<TaskId>(t), e.task, 0.0);
    }
  }
  c.instance.graph = std::move(zero_graph);

  const RobustnessReport oracle = scalar_reference(c, 128);
  for (const std::size_t lanes : {1u, 4u, 8u, 16u}) {
    MonteCarloConfig config;
    config.realizations = 128;
    config.collect_samples = true;
    config.lane_width = lanes;
    const auto batched = evaluate_robustness(c.instance, c.schedule, config);
    expect_reports_identical(oracle, batched);
  }
}

TEST(McBatched, SingleTaskAndSingleRealizationEdgeCases) {
  // Smallest possible shapes: 1 task, and N < lane_width (all-tail group).
  TaskGraph graph(1);
  Platform platform(1, 1.0);
  ProblemInstance instance{std::move(graph), std::move(platform),
                           Matrix<double>(1, 1, 10.0), Matrix<double>(1, 1, 2.0),
                           Matrix<double>{}};
  instance.expected = expected_costs(instance.bcet, instance.ul);
  const Schedule schedule(1, {{0}});
  MonteCarloConfig config;
  config.realizations = 3;
  config.collect_samples = true;
  config.lane_width = 16;
  const auto scalar = oracle::scalar_robustness(instance, schedule, config);
  const auto batched = evaluate_robustness(instance, schedule, config);
  expect_reports_identical(scalar, batched);
}

// ---- BatchedGsSweep, kernel level -----------------------------------------

TEST(McBatched, ForwardMatchesTimingEvaluatorLaneByLane) {
  const SeededCase c = make_case(21, 30, 4);
  const TimingEvaluator evaluator(c.instance.graph, c.instance.platform, c.schedule);
  const BatchedGsSweep sweep(evaluator);
  const RealizationSampler sampler(c.instance, c.schedule);
  const std::size_t n = evaluator.task_count();
  const std::size_t lanes = 8;

  std::vector<double> durations(n * lanes);
  std::vector<double> finish(n * lanes);
  std::vector<double> makespans(lanes);
  const Rng root(21);
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng rng = root.substream(l);
    sampler.sample_lane(rng, durations, l, lanes);
  }
  sweep.forward(durations, lanes, finish, makespans);

  std::vector<double> scalar_dur(n);
  std::vector<double> scalar_fin(n);
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng rng = root.substream(l);
    sampler.sample(rng, scalar_dur);
    const double ms = evaluator.makespan_into(scalar_dur, scalar_fin);
    EXPECT_EQ(ms, makespans[l]);
    for (std::size_t t = 0; t < n; ++t) {
      EXPECT_EQ(scalar_dur[t], durations[t * lanes + l]);
      EXPECT_EQ(scalar_fin[t], finish[t * lanes + l]);
    }
  }
}

TEST(McBatched, ForwardBackwardMatchesFullTimingLaneByLane) {
  const SeededCase c = make_case(22, 30, 4);
  const TimingEvaluator evaluator(c.instance.graph, c.instance.platform, c.schedule);
  const BatchedGsSweep sweep(evaluator);
  const RealizationSampler sampler(c.instance, c.schedule);
  const std::size_t n = evaluator.task_count();
  const std::size_t lanes = 5;

  std::vector<double> durations(n * lanes);
  std::vector<double> start(n * lanes);
  std::vector<double> finish(n * lanes);
  std::vector<double> bottom(n * lanes);
  std::vector<double> slack(n * lanes);
  std::vector<double> makespans(lanes);
  const Rng root(22);
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng rng = root.substream(l);
    sampler.sample_lane(rng, durations, l, lanes);
  }
  sweep.forward_backward(durations, lanes, start, finish, bottom, slack, makespans);

  std::vector<double> scalar_dur(n);
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng rng = root.substream(l);
    sampler.sample(rng, scalar_dur);
    const ScheduleTiming timing = evaluator.full_timing(scalar_dur);
    EXPECT_EQ(timing.makespan, makespans[l]);
    for (const TaskId t : id_range<TaskId>(n)) {
      EXPECT_EQ(timing.start[t], start[t.index() * lanes + l]);
      EXPECT_EQ(timing.finish[t], finish[t.index() * lanes + l]);
      EXPECT_EQ(timing.bottom_level[t], bottom[t.index() * lanes + l]);
      EXPECT_EQ(timing.slack[t], slack[t.index() * lanes + l]);
    }
  }
}

// ---- criticality ----------------------------------------------------------

TEST(McBatched, CriticalityBatchedMatchesScalar) {
  for (const std::uint64_t seed : {31u, 32u, 33u}) {
    const SeededCase c = make_case(seed);
    CriticalityConfig config;
    config.realizations = 200;
    const auto scalar = oracle::scalar_criticality(c.instance, c.schedule, config);
    for (const std::size_t lanes : {1u, 4u, 8u, 16u}) {
      config.lane_width = lanes;
      const auto batched = analyze_criticality(c.instance, c.schedule, config);
      EXPECT_EQ(scalar.criticality_index, batched.criticality_index);
      EXPECT_EQ(scalar.expected_critical_tasks, batched.expected_critical_tasks);
      EXPECT_EQ(scalar.safe_tasks, batched.safe_tasks);
      EXPECT_EQ(scalar.normalized_entropy, batched.normalized_entropy);
    }
  }
}

// ---- hybrid ---------------------------------------------------------------

TEST(McBatched, HybridBatchedMatchesScalar) {
  for (const std::uint64_t seed : {41u, 42u}) {
    const SeededCase c = make_case(seed);
    // Tight threshold so a healthy share of realizations actually trips the
    // re-dispatch (exercising the per-lane fallback inside the batched path)
    // while the rest take the batched static fast path.
    for (const double threshold : {0.02, 0.5}) {
      MonteCarloConfig config;
      config.realizations = 150;
      config.collect_samples = true;
      double scalar_rate = 0.0;
      const auto scalar = oracle::scalar_hybrid(c.instance, c.schedule, threshold,
                                                config, &scalar_rate);
      for (const std::size_t lanes : {1u, 8u}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
          config.lane_width = lanes;
          config.threads = threads;
          double batched_rate = 0.0;
          const auto batched = evaluate_hybrid(c.instance, c.schedule, threshold,
                                               config, &batched_rate);
          expect_reports_identical(scalar, batched);
          EXPECT_EQ(scalar_rate, batched_rate);
        }
      }
    }
  }
}

// ---- partial (drop-policy completion probabilities) -----------------------

TEST(McBatched, PartialSweepMatchesPartialTimingLaneByLane) {
  const SeededCase c = make_case(51, 20, 3);
  const ScheduleTiming timing = compute_schedule_timing(
      c.instance.graph, c.instance.platform, c.schedule, c.instance.expected);
  const PartialSchedule partial =
      testing::freeze_at(c.schedule, timing, 0.3 * timing.makespan);
  const std::size_t n = c.instance.task_count();

  const BatchedPartialSweep sweep(c.instance.graph, c.instance.platform, partial);
  const std::size_t lanes = 6;
  std::vector<double> durations(n * lanes);
  std::vector<double> finish(n * lanes);
  const Rng root(51);
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng rng = root.substream(l);
    for (std::size_t t = 0; t < n; ++t) {
      durations[t * lanes + l] = rng.next_double() * 5.0;
    }
  }
  sweep.forward(durations, lanes, finish);

  std::vector<double> scalar_dur(n);
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng rng = root.substream(l);
    for (std::size_t t = 0; t < n; ++t) scalar_dur[t] = rng.next_double() * 5.0;
    const ScheduleTiming pt =
        partial_timing(c.instance.graph, c.instance.platform, partial, scalar_dur);
    for (const TaskId t : id_range<TaskId>(n)) {
      EXPECT_EQ(pt.finish[t], finish[t.index() * lanes + l]);
    }
  }
}

TEST(McBatched, CompletionFinishesMatchScalarSampleLoop) {
  for (const std::uint64_t seed : {61u, 62u, 63u}) {
    const SeededCase c = make_case(seed, 20, 3);
    const ScheduleTiming timing = compute_schedule_timing(
        c.instance.graph, c.instance.platform, c.schedule, c.instance.expected);
    const PartialSchedule partial =
        testing::freeze_at(c.schedule, timing, 0.25 * timing.makespan);
    const std::size_t n = c.instance.task_count();

    // Sample counts straddling the internal lane width (8), including 1.
    for (const std::size_t samples : {1u, 7u, 8u, 29u}) {
      Rng rng(seed);
      const Matrix<double> batched =
          sample_completion_finishes(c.instance, partial, samples, rng);

      // Scalar oracle: the sample-at-a-time loop this API used before
      // batching, driven by an identical rng — same draws, same recurrence.
      Rng oracle_rng(seed);
      std::vector<double> durations(n, 0.0);
      for (std::size_t k = 0; k < samples; ++k) {
        for (const TaskId t : id_range<TaskId>(n)) {
          if (partial.frozen[t] != 0 || partial.dropped[t] != 0) {
            durations[t.index()] = 0.0;
            continue;
          }
          const std::size_t p = partial.schedule.proc_of(t).index();
          durations[t.index()] =
              sample_realized_duration(oracle_rng, c.instance.bcet(t.index(), p),
                                       c.instance.ul(t.index(), p));
        }
        const ScheduleTiming pt =
            partial_timing(c.instance.graph, c.instance.platform, partial, durations);
        for (const TaskId t : id_range<TaskId>(n)) {
          EXPECT_EQ(pt.finish[t], batched(k, t.index()));
        }
      }
    }
  }
}

}  // namespace
}  // namespace rts
