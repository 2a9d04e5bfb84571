#include "ga/eval.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "../test_helpers.hpp"
#include "core/stochastic.hpp"
#include "sched/heft.hpp"
#include "util/error.hpp"

namespace rts {
namespace {

TEST(EvalWorkspace, MatchesOneShotTimingAcrossRandomChromosomes) {
  const auto instance = testing::small_instance(50, 4, 2.0, 21);
  EvalWorkspace ws(instance.graph, instance.platform, instance.expected);
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const Chromosome c = random_chromosome(instance.graph, 4, rng);
    const Schedule schedule = decode(c, 4);
    const ScheduleTiming expected = compute_schedule_timing(
        instance.graph, instance.platform, schedule, instance.expected);

    const Evaluation via_chrom = ws.evaluate(c);
    EXPECT_EQ(via_chrom.makespan, expected.makespan) << "chromosome " << i;
    EXPECT_EQ(via_chrom.avg_slack, expected.average_slack);
    EXPECT_EQ(via_chrom.effective_slack, 0.0);  // no stddev bound

    const Evaluation via_sched = ws.evaluate(schedule);
    EXPECT_EQ(via_sched.makespan, expected.makespan);
    EXPECT_EQ(via_sched.avg_slack, expected.average_slack);
  }
}

TEST(EvalWorkspace, LastTimingExposesTheMostRecentEvaluation) {
  const auto instance = testing::small_instance(30, 4, 2.0, 22);
  EvalWorkspace ws(instance.graph, instance.platform, instance.expected);
  Rng rng(6);
  const Chromosome c = random_chromosome(instance.graph, 4, rng);
  const Evaluation eval = ws.evaluate(c);
  EXPECT_EQ(ws.last_timing().makespan, eval.makespan);
  EXPECT_EQ(ws.last_timing().average_slack, eval.avg_slack);
  EXPECT_EQ(ws.last_timing().slack.size(), instance.task_count());
}

TEST(EvalWorkspace, EffectiveSlackCapsPerTaskCredit) {
  const auto instance = testing::small_instance(30, 4, 2.0, 23);
  const Matrix<double> stddev = duration_stddev(instance.bcet, instance.ul);
  const double kappa = 2.0;
  EvalWorkspace ws(instance.graph, instance.platform, instance.expected, &stddev,
                   kappa);
  Rng rng(7);
  const Chromosome c = random_chromosome(instance.graph, 4, rng);
  const Evaluation eval = ws.evaluate(c);

  const ScheduleTiming& timing = ws.last_timing();
  double sum = 0.0;
  for (const TaskId t : id_range<TaskId>(instance.task_count())) {
    const std::size_t p = c.assignment[t].index();
    sum += std::min(timing.slack[t], kappa * stddev(t.index(), p));
  }
  EXPECT_EQ(eval.effective_slack, sum / static_cast<double>(instance.task_count()));
  EXPECT_LE(eval.effective_slack, eval.avg_slack + 1e-12);
}

TEST(EvalWorkspace, RebindAcrossProblemsKeepsResultsExact) {
  // A service worker reuses one workspace for many jobs: rebinding to a
  // different instance must behave exactly like a fresh workspace.
  const auto a = testing::small_instance(40, 4, 2.0, 24);
  const auto b = testing::small_instance(25, 3, 3.0, 25);
  EvalWorkspace reused(a.graph, a.platform, a.expected);
  Rng rng(8);
  const Chromosome ca = random_chromosome(a.graph, 4, rng);
  const Chromosome cb = random_chromosome(b.graph, 3, rng);

  const Evaluation first = reused.evaluate(ca);
  reused.bind(b.graph, b.platform, b.expected);
  const Evaluation second = reused.evaluate(cb);
  reused.bind(a.graph, a.platform, a.expected);
  const Evaluation third = reused.evaluate(ca);

  EvalWorkspace fresh_b(b.graph, b.platform, b.expected);
  EXPECT_EQ(second.makespan, fresh_b.evaluate(cb).makespan);
  EXPECT_EQ(first.makespan, third.makespan);
  EXPECT_EQ(first.avg_slack, third.avg_slack);
}

TEST(EvalWorkspace, RejectsMisuse) {
  const auto instance = testing::small_instance(10, 2, 2.0, 26);
  Rng rng(9);
  const Chromosome c = random_chromosome(instance.graph, 2, rng);

  EvalWorkspace unbound;
  EXPECT_FALSE(unbound.bound());
  EXPECT_THROW(unbound.evaluate(c), InvalidArgument);

  const Matrix<double> bad_shape(instance.task_count() + 1, 2, 1.0);
  EXPECT_THROW(
      EvalWorkspace(instance.graph, instance.platform, bad_shape),
      InvalidArgument);

  const Matrix<double> stddev(instance.task_count(), 2, 0.1);
  EXPECT_THROW(EvalWorkspace(instance.graph, instance.platform, instance.expected,
                             &stddev, 0.0),
               InvalidArgument);
}

TEST(EvalWorkspacePool, ReserveRequiresBindingAndKeepsReferencesStable) {
  const auto instance = testing::small_instance(20, 2, 2.0, 27);
  EvalWorkspacePool pool;
  EXPECT_THROW(pool.reserve(2), InvalidArgument);

  pool.bind(instance.graph, instance.platform, instance.expected);
  pool.reserve(3);
  EXPECT_EQ(pool.size(), 3u);
  EvalWorkspace* first = &pool.workspace(0);
  pool.reserve(8);
  EXPECT_EQ(pool.size(), 8u);
  EXPECT_EQ(first, &pool.workspace(0));  // references survive growth
  EXPECT_THROW(static_cast<void>(pool.workspace(8)), InvalidArgument);

  // Every workspace scores identically.
  Rng rng(10);
  const Chromosome c = random_chromosome(instance.graph, 2, rng);
  const Evaluation ref = pool.workspace(0).evaluate(c);
  for (std::size_t i = 1; i < pool.size(); ++i) {
    EXPECT_EQ(pool.workspace(i).evaluate(c).makespan, ref.makespan);
  }
}

}  // namespace
}  // namespace rts
