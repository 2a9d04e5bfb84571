#include "sim/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_helpers.hpp"
#include "sched/random_scheduler.hpp"
#include "sched/timing.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

#ifdef RTS_HAVE_OPENMP
#include <omp.h>
#endif

namespace rts {
namespace {

/// Instance with a single task: BCET 10, UL 2 on one processor, so the
/// realized makespan is U(10, 30) and M0 = 20. Closed forms:
///   E[delta] = E[max(0, M - 20)] / 20 = 2.5 / 20 = 0.125  =>  R1 = 8
///   alpha    = P(M > 20) = 0.5                            =>  R2 = 2
ProblemInstance single_task_instance() {
  TaskGraph graph(1);
  Platform platform(1, 1.0);
  Matrix<double> bcet(1, 1, 10.0);
  Matrix<double> ul(1, 1, 2.0);
  ProblemInstance instance{std::move(graph), std::move(platform), std::move(bcet),
                           std::move(ul), Matrix<double>{}};
  instance.expected = expected_costs(instance.bcet, instance.ul);
  return instance;
}

TEST(MonteCarlo, SingleTaskClosedForm) {
  const auto instance = single_task_instance();
  const Schedule schedule(1, {{0}});
  MonteCarloConfig config;
  config.realizations = 200000;
  const auto report = evaluate_robustness(instance, schedule, config);

  EXPECT_DOUBLE_EQ(report.expected_makespan, 20.0);
  EXPECT_NEAR(report.mean_realized_makespan, 20.0, 0.05);
  EXPECT_NEAR(report.mean_tardiness, 0.125, 0.002);
  EXPECT_NEAR(report.r1, 8.0, 0.15);
  EXPECT_NEAR(report.miss_rate, 0.5, 0.005);
  EXPECT_NEAR(report.r2, 2.0, 0.02);
  EXPECT_NEAR(report.max_realized_makespan, 30.0, 0.01);
  // U(10, 30) stddev = 20 / sqrt(12).
  EXPECT_NEAR(report.stddev_realized_makespan, 20.0 / std::sqrt(12.0), 0.05);
}

TEST(MonteCarlo, NoUncertaintyHitsReciprocalCap) {
  auto instance = single_task_instance();
  for (std::size_t t = 0; t < instance.ul.rows(); ++t) {
    instance.ul(t, 0) = 1.0;
  }
  instance.expected = expected_costs(instance.bcet, instance.ul);
  const Schedule schedule(1, {{0}});
  MonteCarloConfig config;
  config.realizations = 1000;
  config.reciprocal_cap = 1e6;
  const auto report = evaluate_robustness(instance, schedule, config);
  EXPECT_EQ(report.mean_tardiness, 0.0);
  EXPECT_EQ(report.miss_rate, 0.0);
  EXPECT_EQ(report.r1, 1e6);
  EXPECT_EQ(report.r2, 1e6);
}

TEST(MonteCarlo, ExpectedMakespanMatchesTimingEngine) {
  const auto instance = testing::small_instance(40, 4, 3.0, 1);
  Rng rng(1);
  const auto rand =
      random_schedule(instance.graph, instance.platform, instance.expected, rng);
  MonteCarloConfig config;
  config.realizations = 10;
  const auto report = evaluate_robustness(instance, rand.schedule, config);
  EXPECT_DOUBLE_EQ(
      report.expected_makespan,
      compute_makespan(instance.graph, instance.platform, rand.schedule,
                       instance.expected));
}

TEST(MonteCarlo, RealizedMeanDominatesExpectedMakespan) {
  // Makespan is a convex (max-of-sums) function of task durations, so by
  // Jensen's inequality E[M_i] >= M0. This is why miss rates sit near or
  // above 0.5 in the paper's setting.
  for (const std::uint64_t seed : {2u, 3u, 4u}) {
    const auto instance = testing::small_instance(50, 4, 4.0, seed);
    Rng rng(seed);
    const auto rand =
        random_schedule(instance.graph, instance.platform, instance.expected, rng);
    MonteCarloConfig config;
    config.realizations = 2000;
    const auto report = evaluate_robustness(instance, rand.schedule, config);
    EXPECT_GE(report.mean_realized_makespan, report.expected_makespan * 0.999);
  }
}

TEST(MonteCarlo, DeterministicInSeed) {
  const auto instance = testing::small_instance(30, 4, 3.0, 5);
  Rng rng(5);
  const auto rand =
      random_schedule(instance.graph, instance.platform, instance.expected, rng);
  MonteCarloConfig config;
  config.realizations = 500;
  const auto a = evaluate_robustness(instance, rand.schedule, config);
  const auto b = evaluate_robustness(instance, rand.schedule, config);
  EXPECT_EQ(a.mean_realized_makespan, b.mean_realized_makespan);
  EXPECT_EQ(a.mean_tardiness, b.mean_tardiness);
  EXPECT_EQ(a.miss_rate, b.miss_rate);

  config.seed += 1;
  const auto c = evaluate_robustness(instance, rand.schedule, config);
  EXPECT_NE(a.mean_realized_makespan, c.mean_realized_makespan);
}

#ifdef RTS_HAVE_OPENMP
TEST(MonteCarlo, ThreadCountDoesNotChangeResults) {
  const auto instance = testing::small_instance(30, 4, 3.0, 6);
  Rng rng(6);
  const auto rand =
      random_schedule(instance.graph, instance.platform, instance.expected, rng);
  MonteCarloConfig config;
  config.realizations = 1000;
  config.collect_samples = true;

  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  const auto serial = evaluate_robustness(instance, rand.schedule, config);
  omp_set_num_threads(saved);
  const auto parallel = evaluate_robustness(instance, rand.schedule, config);

  EXPECT_EQ(serial.samples, parallel.samples);
  EXPECT_EQ(serial.mean_realized_makespan, parallel.mean_realized_makespan);
  EXPECT_EQ(serial.mean_tardiness, parallel.mean_tardiness);
}
#endif

TEST(MonteCarlo, ThreadsConfigOneVsFourBitIdentical) {
  // The per-realization RNG substream contract promises seed-stable results
  // for any thread count; prove it for the explicit --threads knob. (Without
  // OpenMP the knob is a no-op and the two runs are trivially identical, so
  // this test documents the contract in every build flavor.)
  const auto instance = testing::small_instance(30, 4, 3.0, 12);
  Rng rng(12);
  const auto rand =
      random_schedule(instance.graph, instance.platform, instance.expected, rng);
  MonteCarloConfig config;
  config.realizations = 1000;
  config.collect_samples = true;

  config.threads = 1;
  const auto one = evaluate_robustness(instance, rand.schedule, config);
  config.threads = 4;
  const auto four = evaluate_robustness(instance, rand.schedule, config);

  EXPECT_EQ(one.samples, four.samples);
  EXPECT_EQ(one.mean_realized_makespan, four.mean_realized_makespan);
  EXPECT_EQ(one.stddev_realized_makespan, four.stddev_realized_makespan);
  EXPECT_EQ(one.mean_tardiness, four.mean_tardiness);
  EXPECT_EQ(one.miss_rate, four.miss_rate);
  EXPECT_EQ(one.r1, four.r1);
  EXPECT_EQ(one.r2, four.r2);
  EXPECT_EQ(one.p50_realized_makespan, four.p50_realized_makespan);
  EXPECT_EQ(one.p95_realized_makespan, four.p95_realized_makespan);
  EXPECT_EQ(one.p99_realized_makespan, four.p99_realized_makespan);
}

TEST(MonteCarlo, CollectSamplesReturnsAllRealizations) {
  const auto instance = testing::small_instance(20, 2, 2.0, 7);
  Rng rng(7);
  const auto rand =
      random_schedule(instance.graph, instance.platform, instance.expected, rng);
  MonteCarloConfig config;
  config.realizations = 321;
  config.collect_samples = true;
  const auto report = evaluate_robustness(instance, rand.schedule, config);
  ASSERT_EQ(report.samples.size(), 321u);
  EXPECT_NEAR(mean(report.samples), report.mean_realized_makespan, 1e-9);
  // Without the flag no samples are stored.
  config.collect_samples = false;
  EXPECT_TRUE(evaluate_robustness(instance, rand.schedule, config).samples.empty());
}

void expect_same_statistics(const RobustnessReport& a, const RobustnessReport& b) {
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
  EXPECT_EQ(a.realizations, b.realizations);
}

TEST(MonteCarlo, SummaryKeepsSamplesInRealizationOrder) {
  // Unsorted makespans with ties: selecting the quantiles in place reorders
  // its working vector, and the kept samples must not show it.
  Rng rng(17);
  std::vector<double> samples(5000);
  for (double& s : samples) s = 90.0 + 0.5 * static_cast<double>(rng.next_below(80));
  const auto kept = summarize_makespans(samples, 100.0, 1e12, true);
  EXPECT_EQ(kept.samples, samples);
  const auto dropped = summarize_makespans(samples, 100.0, 1e12, false);
  EXPECT_TRUE(dropped.samples.empty());
  expect_same_statistics(kept, dropped);
  EXPECT_EQ(kept.p50_realized_makespan, percentile(samples, 50.0));
  EXPECT_EQ(kept.p95_realized_makespan, percentile(samples, 95.0));
  EXPECT_EQ(kept.p99_realized_makespan, percentile(samples, 99.0));
}

TEST(MonteCarlo, CollectSamplesDoesNotChangeStatistics) {
  const auto instance = testing::small_instance(30, 4, 3.0, 11);
  Rng rng(11);
  const auto rand =
      random_schedule(instance.graph, instance.platform, instance.expected, rng);
  MonteCarloConfig config;
  config.realizations = 2000;
  config.collect_samples = true;
  const auto kept = evaluate_robustness(instance, rand.schedule, config);
  config.collect_samples = false;
  const auto dropped = evaluate_robustness(instance, rand.schedule, config);
  expect_same_statistics(kept, dropped);
  // Realization i draws from substream i whatever N is, so in realization
  // order a shorter run's samples are a prefix of a longer run's.
  config.collect_samples = true;
  config.realizations = 700;
  const auto prefix = evaluate_robustness(instance, rand.schedule, config);
  ASSERT_EQ(kept.samples.size(), 2000u);
  EXPECT_EQ(prefix.samples,
            std::vector<double>(kept.samples.begin(), kept.samples.begin() + 700));
}

TEST(MonteCarlo, MissRateConsistentWithSamples) {
  const auto instance = testing::small_instance(25, 3, 3.0, 8);
  Rng rng(8);
  const auto rand =
      random_schedule(instance.graph, instance.platform, instance.expected, rng);
  MonteCarloConfig config;
  config.realizations = 500;
  config.collect_samples = true;
  const auto report = evaluate_robustness(instance, rand.schedule, config);
  std::size_t misses = 0;
  for (const double m : report.samples) {
    if (m > report.expected_makespan) ++misses;
  }
  EXPECT_DOUBLE_EQ(report.miss_rate,
                   static_cast<double>(misses) / static_cast<double>(500));
}

TEST(MonteCarlo, PercentilesMatchClosedFormOnSingleTask) {
  // Realized makespan ~ U(10, 30): p50 = 20, p95 = 29, p99 = 29.8.
  const auto instance = single_task_instance();
  const Schedule schedule(1, {{0}});
  MonteCarloConfig config;
  config.realizations = 100000;
  const auto report = evaluate_robustness(instance, schedule, config);
  EXPECT_NEAR(report.p50_realized_makespan, 20.0, 0.1);
  EXPECT_NEAR(report.p95_realized_makespan, 29.0, 0.1);
  EXPECT_NEAR(report.p99_realized_makespan, 29.8, 0.1);
}

TEST(MonteCarlo, PercentilesAreOrdered) {
  const auto instance = testing::small_instance(30, 4, 3.0, 9);
  Rng rng(9);
  const auto rand =
      random_schedule(instance.graph, instance.platform, instance.expected, rng);
  MonteCarloConfig config;
  config.realizations = 500;
  const auto report = evaluate_robustness(instance, rand.schedule, config);
  EXPECT_LE(report.p50_realized_makespan, report.p95_realized_makespan);
  EXPECT_LE(report.p95_realized_makespan, report.p99_realized_makespan);
  EXPECT_LE(report.p99_realized_makespan, report.max_realized_makespan);
  EXPECT_GE(report.p50_realized_makespan, report.expected_makespan * 0.5);
}

TEST(MonteCarlo, RejectsZeroRealizations) {
  const auto instance = single_task_instance();
  const Schedule schedule(1, {{0}});
  MonteCarloConfig config;
  config.realizations = 0;
  EXPECT_THROW(evaluate_robustness(instance, schedule, config), InvalidArgument);
}

}  // namespace
}  // namespace rts
