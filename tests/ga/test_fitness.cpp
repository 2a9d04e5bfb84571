#include "ga/fitness.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/error.hpp"

namespace rts {
namespace {

std::vector<double> fitness_of(std::span<const Evaluation> evals, ObjectiveKind objective,
                               double epsilon, double heft_makespan) {
  std::vector<double> fitness(evals.size());
  generation_fitness(evals, objective, epsilon, heft_makespan, fitness);
  return fitness;
}

TEST(Fitness, MinimizeMakespanRanksByNegatedMakespan) {
  const std::vector<Evaluation> evals{{10.0, 1.0}, {5.0, 0.0}, {20.0, 9.0}};
  const auto f =
      fitness_of(evals, ObjectiveKind::kMinimizeMakespan, 1.0, 100.0);
  EXPECT_GT(f[1], f[0]);
  EXPECT_GT(f[0], f[2]);
}

TEST(Fitness, MaximizeSlackRanksBySlack) {
  const std::vector<Evaluation> evals{{10.0, 1.0}, {5.0, 0.0}, {20.0, 9.0}};
  const auto f = fitness_of(evals, ObjectiveKind::kMaximizeSlack, 1.0, 100.0);
  EXPECT_GT(f[2], f[0]);
  EXPECT_GT(f[0], f[1]);
}

TEST(Fitness, EpsilonConstraintFeasibleBranchIsSlack) {
  // bound = 1.2 * 100 = 120; all feasible.
  const std::vector<Evaluation> evals{{100.0, 3.0}, {120.0, 5.0}};
  const auto f =
      fitness_of(evals, ObjectiveKind::kEpsilonConstraint, 1.2, 100.0);
  EXPECT_DOUBLE_EQ(f[0], 3.0);
  EXPECT_DOUBLE_EQ(f[1], 5.0);  // boundary is feasible (<=)
}

TEST(Fitness, EpsilonConstraintPenalizesInfeasibleBelowWeakestFeasible) {
  // Eqn. 8: infeasible fitness = min{feasible fitness} * bound / M0.
  const std::vector<Evaluation> evals{
      {90.0, 4.0},   // feasible, slack 4
      {100.0, 2.0},  // feasible, slack 2 (the weakest feasible)
      {150.0, 9.0},  // infeasible despite huge slack
      {300.0, 9.0},  // even more infeasible
  };
  const auto f =
      fitness_of(evals, ObjectiveKind::kEpsilonConstraint, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(f[0], 4.0);
  EXPECT_DOUBLE_EQ(f[1], 2.0);
  EXPECT_DOUBLE_EQ(f[2], 2.0 * 100.0 / 150.0);
  EXPECT_DOUBLE_EQ(f[3], 2.0 * 100.0 / 300.0);
  // Ordering: every feasible above every infeasible; worse violation lower.
  EXPECT_LT(f[2], f[1]);
  EXPECT_LT(f[3], f[2]);
}

TEST(Fitness, EpsilonConstraintAllInfeasibleFallback) {
  const std::vector<Evaluation> evals{{150.0, 1.0}, {300.0, 9.0}};
  const auto f =
      fitness_of(evals, ObjectiveKind::kEpsilonConstraint, 1.0, 100.0);
  // Ranked purely by constraint violation: smaller makespan wins.
  EXPECT_DOUBLE_EQ(f[0], 100.0 / 150.0);
  EXPECT_DOUBLE_EQ(f[1], 100.0 / 300.0);
}

TEST(Fitness, InfeasiblePenaltyKeepsGradientWhenBestFeasibleSlackIsZero) {
  // Regression: with Eqn. 8's literal scale (min feasible fitness), a
  // generation whose only feasible individuals have zero slack collapsed
  // every infeasible fitness to 0 — tied with the feasible individuals and
  // with each other, so selection lost all pressure toward feasibility.
  const std::vector<Evaluation> evals{
      {100.0, 0.0},  // feasible on the boundary, zero slack
      {150.0, 5.0},  // infeasible
      {300.0, 5.0},  // more infeasible
  };
  const auto f =
      fitness_of(evals, ObjectiveKind::kEpsilonConstraint, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(f[0], 0.0);
  // Infeasible stays strictly below feasible and still decreases with M0.
  EXPECT_LT(f[1], f[0]);
  EXPECT_LT(f[2], f[1]);
}

TEST(Fitness, InfeasibleNeverOutranksAnyFeasible) {
  // The floored penalty scale must not push a barely-infeasible individual
  // above a zero-slack feasible one.
  const std::vector<Evaluation> evals{
      {100.0, 0.0},       // feasible, zero slack
      {100.0 + 1e-6, 9.0} // infinitesimally infeasible, huge slack
  };
  const auto f =
      fitness_of(evals, ObjectiveKind::kEpsilonConstraint, 1.0, 100.0);
  EXPECT_LT(f[1], f[0]);
}

TEST(Fitness, EpsilonConstraintRequiresPositiveReferences) {
  const std::vector<Evaluation> evals{{1.0, 1.0}};
  EXPECT_THROW(fitness_of(evals, ObjectiveKind::kEpsilonConstraint, 0.0, 100.0),
               InvalidArgument);
  EXPECT_THROW(fitness_of(evals, ObjectiveKind::kEpsilonConstraint, 1.0, 0.0),
               InvalidArgument);
}

TEST(Fitness, RejectsOutputBufferOfWrongLength) {
  const std::vector<Evaluation> evals{{1.0, 1.0}, {2.0, 0.5}};
  std::vector<double> fitness(1);
  EXPECT_THROW(generation_fitness(evals, ObjectiveKind::kMaximizeSlack, 1.0, 100.0, fitness),
               InvalidArgument);
}

TEST(Feasibility, BoundaryIsInclusive) {
  EXPECT_TRUE(is_feasible({100.0, 0.0}, 1.0, 100.0));
  EXPECT_FALSE(is_feasible({100.0001, 0.0}, 1.0, 100.0));
  EXPECT_TRUE(is_feasible({199.0, 0.0}, 2.0, 100.0));
}

TEST(BetterThan, MinimizeMakespan) {
  EXPECT_TRUE(better_than({5.0, 0.0}, {6.0, 10.0}, ObjectiveKind::kMinimizeMakespan,
                          1.0, 100.0));
  EXPECT_FALSE(better_than({6.0, 10.0}, {5.0, 0.0}, ObjectiveKind::kMinimizeMakespan,
                           1.0, 100.0));
}

TEST(BetterThan, MaximizeSlackBreaksTiesOnMakespan) {
  EXPECT_TRUE(
      better_than({5.0, 3.0}, {9.0, 3.0}, ObjectiveKind::kMaximizeSlack, 1.0, 100.0));
  EXPECT_TRUE(
      better_than({9.0, 4.0}, {5.0, 3.0}, ObjectiveKind::kMaximizeSlack, 1.0, 100.0));
}

TEST(BetterThan, EpsilonConstraintOrdering) {
  const auto obj = ObjectiveKind::kEpsilonConstraint;
  // Feasible always beats infeasible, even with less slack.
  EXPECT_TRUE(better_than({100.0, 0.5}, {150.0, 9.0}, obj, 1.0, 100.0));
  EXPECT_FALSE(better_than({150.0, 9.0}, {100.0, 0.5}, obj, 1.0, 100.0));
  // Among feasible: more slack wins; ties favour smaller makespan.
  EXPECT_TRUE(better_than({100.0, 5.0}, {90.0, 4.0}, obj, 1.0, 100.0));
  EXPECT_TRUE(better_than({90.0, 5.0}, {100.0, 5.0}, obj, 1.0, 100.0));
  // Among infeasible: smaller makespan wins.
  EXPECT_TRUE(better_than({150.0, 0.0}, {200.0, 9.0}, obj, 1.0, 100.0));
}

TEST(BetterThan, IsIrreflexive) {
  const Evaluation e{50.0, 2.0, 1.0};
  for (const auto obj :
       {ObjectiveKind::kMinimizeMakespan, ObjectiveKind::kMaximizeSlack,
        ObjectiveKind::kEpsilonConstraint, ObjectiveKind::kEpsilonConstraintEffective}) {
    EXPECT_FALSE(better_than(e, e, obj, 1.0, 100.0));
  }
}

TEST(Fitness, EffectiveObjectiveUsesEffectiveSlack) {
  // Two feasible individuals: more raw slack but less *effective* slack must
  // lose under the stochastic objective and win under the plain one.
  const std::vector<Evaluation> evals{
      {90.0, 8.0, 2.0},   // lots of slack, little of it where uncertainty is
      {95.0, 5.0, 4.0},   // less slack, better placed
      {150.0, 9.0, 9.0},  // infeasible
  };
  const auto eff = fitness_of(
      evals, ObjectiveKind::kEpsilonConstraintEffective, 1.0, 100.0);
  EXPECT_DOUBLE_EQ(eff[0], 2.0);
  EXPECT_DOUBLE_EQ(eff[1], 4.0);
  EXPECT_GT(eff[1], eff[0]);
  // Infeasible penalty scales from the weakest feasible *effective* value.
  EXPECT_DOUBLE_EQ(eff[2], 2.0 * 100.0 / 150.0);

  const auto plain =
      fitness_of(evals, ObjectiveKind::kEpsilonConstraint, 1.0, 100.0);
  EXPECT_GT(plain[0], plain[1]);
}

TEST(BetterThan, EffectiveObjectiveOrdering) {
  const auto obj = ObjectiveKind::kEpsilonConstraintEffective;
  // Feasible beats infeasible regardless of effective slack.
  EXPECT_TRUE(better_than({100.0, 1.0, 0.5}, {150.0, 9.0, 9.0}, obj, 1.0, 100.0));
  // Among feasible: effective slack decides...
  EXPECT_TRUE(better_than({100.0, 5.0, 4.0}, {90.0, 8.0, 2.0}, obj, 1.0, 100.0));
  // ...ties fall back to raw slack, then makespan.
  EXPECT_TRUE(better_than({100.0, 8.0, 4.0}, {100.0, 5.0, 4.0}, obj, 1.0, 100.0));
  EXPECT_TRUE(better_than({90.0, 5.0, 4.0}, {100.0, 5.0, 4.0}, obj, 1.0, 100.0));
}

}  // namespace
}  // namespace rts
