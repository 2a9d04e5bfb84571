#include "ga/engine.hpp"

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/stochastic.hpp"
#include "sched/timing.hpp"
#include "util/error.hpp"

namespace rts {
namespace {

GaConfig fast_config() {
  GaConfig config;
  config.max_iterations = 150;
  config.stagnation_window = 50;
  config.seed = 42;
  return config;
}

TEST(GaEngine, RespectsEpsilonConstraint) {
  const auto instance = testing::small_instance(40, 4, 2.0, 1);
  for (const double epsilon : {1.0, 1.3, 1.8}) {
    GaConfig config = fast_config();
    config.epsilon = epsilon;
    const auto result =
        run_ga(instance.graph, instance.platform, instance.expected, config);
    EXPECT_LE(result.best_eval.makespan, epsilon * result.heft_makespan + 1e-9)
        << "epsilon " << epsilon;
  }
}

TEST(GaEngine, ImprovesSlackOverHeftAtEpsilonOne) {
  // The paper's central claim at ε = 1: slack strictly improves while the
  // makespan stays within M_HEFT.
  const auto instance = testing::small_instance(60, 6, 2.0, 2);
  GaConfig config = fast_config();
  config.max_iterations = 300;
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);

  const auto heft = heft_schedule(instance.graph, instance.platform, instance.expected);
  const auto heft_timing = compute_schedule_timing(instance.graph, instance.platform,
                                                   heft.schedule, instance.expected);
  EXPECT_GT(result.best_eval.avg_slack, heft_timing.average_slack);
  EXPECT_LE(result.best_eval.makespan, heft.makespan + 1e-9);
}

TEST(GaEngine, LargerEpsilonNeverHurtsSlack) {
  const auto instance = testing::small_instance(40, 4, 2.0, 3);
  double prev_slack = -1.0;
  for (const double epsilon : {1.0, 1.5, 2.0}) {
    GaConfig config = fast_config();
    config.epsilon = epsilon;
    config.max_iterations = 250;
    const auto result =
        run_ga(instance.graph, instance.platform, instance.expected, config);
    // Not strictly monotone run-to-run (stochastic search), but the trend
    // must hold with generous tolerance: a wider budget cannot make the
    // reachable optimum worse.
    EXPECT_GT(result.best_eval.avg_slack, prev_slack * 0.95);
    prev_slack = result.best_eval.avg_slack;
  }
}

TEST(GaEngine, BestScheduleIsValidAndConsistent) {
  const auto instance = testing::small_instance(40, 4, 2.0, 4);
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, fast_config());
  ASSERT_TRUE(is_valid_chromosome(instance.graph, 4, result.best));
  const auto timing = compute_schedule_timing(instance.graph, instance.platform,
                                              result.best_schedule, instance.expected);
  EXPECT_DOUBLE_EQ(timing.makespan, result.best_eval.makespan);
  EXPECT_DOUBLE_EQ(timing.average_slack, result.best_eval.avg_slack);
}

TEST(GaEngine, DeterministicInSeed) {
  const auto instance = testing::small_instance(30, 4, 2.0, 5);
  const auto a = run_ga(instance.graph, instance.platform, instance.expected,
                        fast_config());
  const auto b = run_ga(instance.graph, instance.platform, instance.expected,
                        fast_config());
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.iterations, b.iterations);
  GaConfig other = fast_config();
  other.seed = 43;
  const auto c = run_ga(instance.graph, instance.platform, instance.expected, other);
  // Different seeds explore differently (values may tie, chromosomes rarely).
  EXPECT_TRUE(c.best != a.best || c.iterations != a.iterations);
}

TEST(GaEngine, HistoryIsMonotoneUnderElitism) {
  const auto instance = testing::small_instance(40, 4, 2.0, 6);
  GaConfig config = fast_config();
  config.history_stride = 1;
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  ASSERT_GT(result.history.size(), 1u);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    // Best-so-far slack never decreases (ε-constraint objective).
    EXPECT_GE(result.history[i].best_avg_slack,
              result.history[i - 1].best_avg_slack - 1e-12);
    // And stays feasible throughout.
    EXPECT_LE(result.history[i].best_makespan,
              config.epsilon * result.heft_makespan + 1e-9);
  }
}

TEST(GaEngine, StagnationStopsEarly) {
  const auto instance = testing::small_instance(20, 2, 2.0, 7);
  GaConfig config = fast_config();
  config.max_iterations = 5000;
  config.stagnation_window = 20;
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  EXPECT_LT(result.iterations, 5000u);
}

TEST(GaEngine, HistoryStrideThinsRecords) {
  const auto instance = testing::small_instance(20, 2, 2.0, 8);
  GaConfig config = fast_config();
  config.max_iterations = 100;
  config.stagnation_window = 100;
  config.history_stride = 25;
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  // Records at 0, 25, 50, 75, 100 (plus possibly a final duplicate-free
  // entry); strictly fewer than every-iteration recording.
  EXPECT_LE(result.history.size(), 6u);
  EXPECT_EQ(result.history.front().iteration, 0u);
  config.history_stride = 0;
  const auto none = run_ga(instance.graph, instance.platform, instance.expected, config);
  EXPECT_TRUE(none.history.empty());
}

TEST(GaEngine, ObserverSeesBestChromosome) {
  const auto instance = testing::small_instance(20, 2, 2.0, 9);
  GaConfig config = fast_config();
  config.history_stride = 10;
  std::size_t calls = 0;
  const GaObserver observer = [&](const GaIterationRecord& rec, const Chromosome& best) {
    ++calls;
    ASSERT_TRUE(is_valid_chromosome(instance.graph, 2, best));
    const Schedule s = decode(best, 2);
    const auto timing =
        compute_schedule_timing(instance.graph, instance.platform, s, instance.expected);
    EXPECT_DOUBLE_EQ(timing.makespan, rec.best_makespan);
  };
  run_ga(instance.graph, instance.platform, instance.expected, config, observer);
  EXPECT_GT(calls, 2u);
}

TEST(GaEngine, MinimizeMakespanObjectiveReducesMakespan) {
  const auto instance = testing::small_instance(40, 4, 2.0, 10);
  GaConfig config = fast_config();
  config.objective = ObjectiveKind::kMinimizeMakespan;
  config.seed_with_heft = false;  // start from random only; must improve a lot
  config.max_iterations = 300;
  config.history_stride = 1;
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  EXPECT_LT(result.best_eval.makespan, result.history.front().best_makespan);
}

TEST(GaEngine, MaximizeSlackObjectiveGrowsSlackAndMakespan) {
  const auto instance = testing::small_instance(40, 4, 2.0, 11);
  GaConfig config = fast_config();
  config.objective = ObjectiveKind::kMaximizeSlack;
  config.max_iterations = 300;
  config.history_stride = 1;
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  EXPECT_GT(result.best_eval.avg_slack, result.history.front().best_avg_slack);
  // Section 5.1: slack maximization drives the makespan up substantially.
  EXPECT_GT(result.best_eval.makespan, result.heft_makespan);
}

TEST(GaEngine, HeftSeedMakesGenerationZeroFeasible) {
  const auto instance = testing::small_instance(40, 4, 2.0, 12);
  GaConfig config = fast_config();
  config.history_stride = 1;
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  // With the HEFT seed, the best-so-far at iteration 0 is already feasible
  // at ε = 1 (the seed itself sits exactly on the bound).
  EXPECT_LE(result.history.front().best_makespan, result.heft_makespan + 1e-9);
}

TEST(GaEngine, RejectsBadConfig) {
  const auto instance = testing::small_instance(10, 2, 2.0, 13);
  GaConfig config = fast_config();
  config.population_size = 1;
  EXPECT_THROW(run_ga(instance.graph, instance.platform, instance.expected, config),
               InvalidArgument);
  config = fast_config();
  config.crossover_prob = 1.5;
  EXPECT_THROW(run_ga(instance.graph, instance.platform, instance.expected, config),
               InvalidArgument);
  config = fast_config();
  config.mutation_prob = -0.1;
  EXPECT_THROW(run_ga(instance.graph, instance.platform, instance.expected, config),
               InvalidArgument);
  config = fast_config();
  config.max_iterations = 0;
  EXPECT_THROW(run_ga(instance.graph, instance.platform, instance.expected, config),
               InvalidArgument);
}

TEST(GaEngine, WorksOnTinySearchSpaces) {
  // 2 tasks, 1 processor: only two chromosomes exist; uniqueness rejection
  // must not hang and the GA must still return a valid result.
  TaskGraph g(2);
  const Platform platform(1, 1.0);
  const Matrix<double> costs(2, 1, 1.0);
  GaConfig config = fast_config();
  config.max_iterations = 10;
  const auto result = run_ga(g, platform, costs, config);
  EXPECT_DOUBLE_EQ(result.best_eval.makespan, 2.0);
}

TEST(GaEngine, OddPopulationSizeIsSupported) {
  const auto instance = testing::small_instance(20, 2, 2.0, 14);
  GaConfig config = fast_config();
  config.population_size = 7;
  config.max_iterations = 50;
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  EXPECT_TRUE(is_valid_chromosome(instance.graph, 2, result.best));
}

TEST(GaEngine, EffectiveSlackObjectiveRequiresStddev) {
  const auto instance = testing::small_instance(20, 4, 3.0, 16);
  GaConfig config = fast_config();
  config.objective = ObjectiveKind::kEpsilonConstraintEffective;
  EXPECT_THROW(run_ga(instance.graph, instance.platform, instance.expected, config),
               InvalidArgument);
  Matrix<double> wrong_shape(3, 3, 1.0);
  EXPECT_THROW(run_ga(instance.graph, instance.platform, instance.expected, config,
                      nullptr, &wrong_shape),
               InvalidArgument);
  config.effective_slack_kappa = 0.0;
  Matrix<double> stddev(20, 4, 1.0);
  EXPECT_THROW(run_ga(instance.graph, instance.platform, instance.expected, config,
                      nullptr, &stddev),
               InvalidArgument);
}

TEST(GaEngine, EffectiveSlackObjectiveRespectsConstraintAndCap) {
  const auto instance = testing::small_instance(40, 4, 4.0, 17);
  GaConfig config = fast_config();
  config.objective = ObjectiveKind::kEpsilonConstraintEffective;
  config.epsilon = 1.2;
  config.max_iterations = 200;
  const Matrix<double> stddev = duration_stddev(instance.bcet, instance.ul);
  const auto result = run_ga(instance.graph, instance.platform, instance.expected,
                             config, nullptr, &stddev);
  EXPECT_LE(result.best_eval.makespan, 1.2 * result.heft_makespan + 1e-9);
  EXPECT_GT(result.best_eval.effective_slack, 0.0);
  // min(slack, kappa * sigma) <= slack, averaged too.
  EXPECT_LE(result.best_eval.effective_slack, result.best_eval.avg_slack + 1e-12);
}

TEST(GaEngine, StddevMatrixIgnoredByOtherObjectives) {
  // Passing stochastic information to the plain ε-constraint objective must
  // not change the result.
  const auto instance = testing::small_instance(30, 4, 3.0, 18);
  const Matrix<double> stddev = duration_stddev(instance.bcet, instance.ul);
  const auto plain =
      run_ga(instance.graph, instance.platform, instance.expected, fast_config());
  const auto with_stddev = run_ga(instance.graph, instance.platform, instance.expected,
                                  fast_config(), nullptr, &stddev);
  EXPECT_EQ(plain.best, with_stddev.best);
}

TEST(GaEngine, BitIdenticalAcrossEvaluationThreadCounts) {
  // config.threads is a pure performance knob: the population-evaluation
  // loop writes into a dense array from per-thread workspaces and reduces
  // serially, so every field of the result must match bit-for-bit.
  const auto instance = testing::small_instance(40, 4, 2.0, 16);
  GaConfig config = fast_config();
  config.history_stride = 1;
  config.threads = 1;
  const auto ref =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    config.threads = threads;
    const auto got =
        run_ga(instance.graph, instance.platform, instance.expected, config);
    EXPECT_EQ(got.best, ref.best) << threads << " threads";
    EXPECT_EQ(got.best_eval.makespan, ref.best_eval.makespan);
    EXPECT_EQ(got.best_eval.avg_slack, ref.best_eval.avg_slack);
    EXPECT_EQ(got.best_eval.effective_slack, ref.best_eval.effective_slack);
    EXPECT_EQ(got.best_schedule, ref.best_schedule);
    EXPECT_EQ(got.heft_makespan, ref.heft_makespan);
    EXPECT_EQ(got.iterations, ref.iterations);
    ASSERT_EQ(got.history.size(), ref.history.size());
    for (std::size_t i = 0; i < ref.history.size(); ++i) {
      EXPECT_EQ(got.history[i].iteration, ref.history[i].iteration);
      EXPECT_EQ(got.history[i].best_makespan, ref.history[i].best_makespan);
      EXPECT_EQ(got.history[i].best_avg_slack, ref.history[i].best_avg_slack);
    }
  }
}

TEST(GaEngine, ConvergedRunScoresEachRepeatedChildOnce) {
  // At the paper's settings the population converges, and most children
  // equal a member of the intermediate pool; they inherit its evaluation
  // instead of being scored again. The count is a property of the search,
  // not of the thread count.
  const auto instance = testing::small_instance(100, 8, 2.0, 19);
  GaConfig config;
  config.epsilon = 1.2;
  config.seed = 3;
  config.threads = 1;
  const auto ref =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  ASSERT_LT(ref.iterations, config.max_iterations) << "expected a stagnation exit";
  EXPECT_GE(ref.evaluations, config.population_size);
  EXPECT_LT(ref.evaluations, config.population_size * ref.iterations / 2);
  config.threads = 4;
  const auto got =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  EXPECT_EQ(got.evaluations, ref.evaluations);
  EXPECT_EQ(got.best, ref.best);
}

TEST(GaEngine, BitIdenticalWithCallerProvidedWorkspacePool) {
  // A reused (service-worker) pool carries buffer capacity across runs but
  // must never leak state into the results.
  const auto instance = testing::small_instance(30, 4, 2.0, 17);
  const auto ref =
      run_ga(instance.graph, instance.platform, instance.expected, fast_config());
  EvalWorkspacePool pool;
  for (int round = 0; round < 2; ++round) {
    const auto got = run_ga(instance.graph, instance.platform, instance.expected,
                            fast_config(), nullptr, nullptr, &pool);
    EXPECT_EQ(got.best, ref.best) << "round " << round;
    EXPECT_EQ(got.best_eval.makespan, ref.best_eval.makespan);
    EXPECT_EQ(got.iterations, ref.iterations);
  }
}

TEST(GaEngine, StagnationExitStillRecordsTerminalIteration) {
  // Regression: a stagnation break used to skip the final history record
  // when the terminal iteration missed the stride, so plots silently ended
  // at the last stride-aligned point instead of where the run stopped.
  const auto instance = testing::small_instance(20, 2, 2.0, 7);
  GaConfig config = fast_config();
  config.max_iterations = 5000;
  config.stagnation_window = 20;
  config.history_stride = 1000;  // almost certainly misses the exit iteration
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  ASSERT_LT(result.iterations, 5000u);
  ASSERT_FALSE(result.history.empty());
  EXPECT_EQ(result.history.back().iteration, result.iterations);
  EXPECT_EQ(result.history.back().best_makespan, result.best_eval.makespan);
  EXPECT_EQ(result.history.back().best_avg_slack, result.best_eval.avg_slack);
}

TEST(GaEngine, ElitismAblationStillValid) {
  const auto instance = testing::small_instance(30, 4, 2.0, 15);
  GaConfig config = fast_config();
  config.elitism = false;
  config.max_iterations = 100;
  const auto result =
      run_ga(instance.graph, instance.platform, instance.expected, config);
  EXPECT_TRUE(is_valid_chromosome(instance.graph, 4, result.best));
  // best-so-far tracking is still monotone even without elitism.
  EXPECT_LE(result.best_eval.makespan, config.epsilon * result.heft_makespan + 1e-9);
}

}  // namespace
}  // namespace rts
