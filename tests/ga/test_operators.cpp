#include "ga/operators.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "../test_helpers.hpp"
#include "graph/topology.hpp"

namespace rts {
namespace {

/// One crossover into fresh offspring and a fresh mask.
std::pair<Chromosome, Chromosome> cross(const Chromosome& a, const Chromosome& b,
                                        Rng& rng) {
  Chromosome ca;
  Chromosome cb;
  IdVector<TaskId, std::uint8_t> mask;
  crossover(a, b, rng, ca, cb, mask);
  return {std::move(ca), std::move(cb)};
}

void mutate_once(Chromosome& c, const TaskGraph& g, std::size_t proc_count, Rng& rng) {
  IdVector<TaskId, std::size_t> positions;
  mutate(c, g, proc_count, rng, positions);
}

std::pair<std::size_t, std::size_t> window(const TaskGraph& g,
                                           std::span<const TaskId> order_without_v,
                                           TaskId v) {
  IdVector<TaskId, std::size_t> positions;
  return mutation_window(g, order_without_v, v, positions);
}

// --- Crossover -------------------------------------------------------------

class CrossoverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossoverProperty, OffspringAreAlwaysValid) {
  // The paper claims the single-point order crossover always yields valid
  // topological sorts (Section 4.2.5); verify over many random parents.
  const auto instance = testing::small_instance(30, 4, 2.0, GetParam());
  const TaskGraph& g = instance.graph;
  Rng rng(GetParam() ^ 0xc0ffee);
  for (int trial = 0; trial < 200; ++trial) {
    const Chromosome a = random_chromosome(g, 4, rng);
    const Chromosome b = random_chromosome(g, 4, rng);
    const auto [ca, cb] = cross(a, b, rng);
    ASSERT_TRUE(is_valid_chromosome(g, 4, ca));
    ASSERT_TRUE(is_valid_chromosome(g, 4, cb));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossoverProperty, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Crossover, OffspringAssignmentsComeFromParents) {
  const auto instance = testing::small_instance(20, 4, 2.0, 5);
  Rng rng(6);
  const Chromosome a = random_chromosome(instance.graph, 4, rng);
  const Chromosome b = random_chromosome(instance.graph, 4, rng);
  const auto [ca, cb] = cross(a, b, rng);
  for (const TaskId t : id_range<TaskId>(20)) {
    // Each offspring's processor for task t comes from one of the parents,
    // and the two offspring split the pair.
    const bool a_from_a = ca.assignment[t] == a.assignment[t];
    const bool a_from_b = ca.assignment[t] == b.assignment[t];
    ASSERT_TRUE(a_from_a || a_from_b);
    if (a_from_a && !a_from_b) {
      EXPECT_EQ(cb.assignment[t], b.assignment[t]);
    } else if (a_from_b && !a_from_a) {
      EXPECT_EQ(cb.assignment[t], a.assignment[t]);
    }
  }
}

TEST(Crossover, AssignmentTailSwapIsContiguous) {
  // With distinct parent assignments everywhere, the child switches source
  // exactly once (single cut point over task ids).
  TaskGraph g(10);  // independent tasks: any permutation is topological
  Chromosome a;
  Chromosome b;
  a.order.resize(10);
  b.order.resize(10);
  for (const TaskId t : id_range<TaskId>(10)) {
    a.order[t.index()] = t;
    b.order[t.index()] = t;
  }
  a.assignment.assign(10, 0);
  b.assignment.assign(10, 1);
  Rng rng(7);
  const auto [ca, cb] = cross(a, b, rng);
  int switches = 0;
  for (TaskId t = 1; t.index() < 10; ++t) {
    if (ca.assignment[t] != ca.assignment[t.value() - 1]) ++switches;
  }
  EXPECT_EQ(switches, 1);
  // Left part keeps parent A's processors, right part parent B's.
  EXPECT_EQ(ca.assignment[0], 0);
  EXPECT_EQ(ca.assignment[9], 1);
  EXPECT_EQ(cb.assignment[0], 1);
  EXPECT_EQ(cb.assignment[9], 0);
}

TEST(Crossover, LeftPrefixOfSchedulingStringIsPreserved) {
  // Offspring A keeps some non-empty prefix of parent A's scheduling string.
  const auto instance = testing::small_instance(15, 2, 2.0, 8);
  Rng rng(9);
  const Chromosome a = random_chromosome(instance.graph, 2, rng);
  const Chromosome b = random_chromosome(instance.graph, 2, rng);
  const auto [ca, cb] = cross(a, b, rng);
  EXPECT_EQ(ca.order[0], a.order[0]);
  EXPECT_EQ(cb.order[0], b.order[0]);
}

TEST(Crossover, RightPartFollowsOtherParentsRelativeOrder) {
  // Explicit 4-task check with deterministic verification over all cuts:
  // whatever the cut, tasks in child A's right part appear in parent B's
  // relative order.
  TaskGraph g(4);
  Chromosome a;
  a.order = {0, 1, 2, 3};
  a.assignment = {0, 0, 0, 0};
  Chromosome b;
  b.order = {3, 2, 1, 0};
  b.assignment = {0, 0, 0, 0};
  Rng rng(10);
  for (int trial = 0; trial < 50; ++trial) {
    const auto [ca, cb] = cross(a, b, rng);
    // Find the preserved prefix length, then check the suffix ordering.
    std::size_t cut = 0;
    while (cut < 4 && ca.order[cut] == a.order[cut]) ++cut;
    std::vector<std::size_t> pos_in_b(4);
    for (std::size_t i = 0; i < 4; ++i) {
      pos_in_b[b.order[i].index()] = i;
    }
    for (std::size_t i = cut + 1; i < 4; ++i) {
      EXPECT_LT(pos_in_b[ca.order[i - 1].index()], pos_in_b[ca.order[i].index()]);
    }
  }
}

TEST(Crossover, RejectsMismatchedParents) {
  TaskGraph g(3);
  Rng rng(11);
  Chromosome a = random_chromosome(g, 2, rng);
  Chromosome b = random_chromosome(g, 2, rng);
  b.order.pop_back();
  EXPECT_THROW(cross(a, b, rng), InvalidArgument);
}

TEST(Crossover, ReusedOffspringBuffersMatchFreshOnes) {
  // run_ga recombines into the same offspring and mask every generation;
  // the stale contents of those buffers must never leak into a child.
  const auto instance = testing::small_instance(40, 4, 2.0, 31);
  Rng parents_rng(3);
  Rng fresh_rng(17);
  Rng reused_rng(17);
  Chromosome ca;
  Chromosome cb;
  IdVector<TaskId, std::uint8_t> mask;
  for (int i = 0; i < 50; ++i) {
    const Chromosome a = random_chromosome(instance.graph, 4, parents_rng);
    const Chromosome b = random_chromosome(instance.graph, 4, parents_rng);
    const auto [fa, fb] = cross(a, b, fresh_rng);
    crossover(a, b, reused_rng, ca, cb, mask);
    EXPECT_EQ(ca, fa) << "pair " << i;
    EXPECT_EQ(cb, fb) << "pair " << i;
  }
}

TEST(Crossover, RejectsOffspringAliasingParents) {
  TaskGraph g(3);
  Rng rng(11);
  Chromosome a = random_chromosome(g, 2, rng);
  const Chromosome b = random_chromosome(g, 2, rng);
  Chromosome other;
  IdVector<TaskId, std::uint8_t> mask;
  EXPECT_THROW(crossover(a, b, rng, a, other, mask), InvalidArgument);
  EXPECT_THROW(crossover(a, b, rng, other, other, mask), InvalidArgument);
}

// --- Mutation ----------------------------------------------------------------

class MutationProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationProperty, MutantsAreAlwaysValid) {
  const auto instance = testing::small_instance(30, 4, 2.0, GetParam());
  const TaskGraph& g = instance.graph;
  Rng rng(GetParam() ^ 0xfeedu);
  Chromosome c = random_chromosome(g, 4, rng);
  for (int trial = 0; trial < 500; ++trial) {
    mutate_once(c, g, 4, rng);
    ASSERT_TRUE(is_valid_chromosome(g, 4, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationProperty, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Mutation, WindowRespectsImmediateNeighbours) {
  // Chain 0 -> 1 -> 2 with task 1 removed: it can only go back between its
  // predecessor and successor, i.e. insertion index 1 of {0, 2}.
  const TaskGraph g = testing::chain3();
  const std::vector<TaskId> without{0, 2};
  const auto [lo, hi] = window(g, without, 1);
  EXPECT_EQ(lo, 1u);
  EXPECT_EQ(hi, 1u);
}

TEST(Mutation, WindowOfIndependentTaskIsFullString) {
  TaskGraph g(3);
  g.add_edge(0, 2, 0.0);  // task 1 is independent of both
  const std::vector<TaskId> without{0, 2};
  const auto [lo, hi] = window(g, without, 1);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 2u);  // may be first, between, or appended last
}

TEST(Mutation, WindowOfEntryAndExitTasks) {
  const TaskGraph g = testing::chain3();
  const std::vector<TaskId> without_0{1, 2};
  const auto [lo0, hi0] = window(g, without_0, 0);
  EXPECT_EQ(lo0, 0u);
  EXPECT_EQ(hi0, 0u);  // must stay before its successor task 1
  const std::vector<TaskId> without_2{0, 1};
  const auto [lo2, hi2] = window(g, without_2, 2);
  EXPECT_EQ(lo2, 2u);
  EXPECT_EQ(hi2, 2u);  // must stay after task 1 (append slot)
}

TEST(Mutation, EventuallyMovesTasksAndChangesProcessors) {
  const auto instance = testing::small_instance(20, 4, 2.0, 12);
  Rng rng(13);
  const Chromosome original = random_chromosome(instance.graph, 4, rng);
  bool order_changed = false;
  bool assignment_changed = false;
  Chromosome c = original;
  for (int trial = 0; trial < 100 && !(order_changed && assignment_changed); ++trial) {
    mutate_once(c, instance.graph, 4, rng);
    order_changed = order_changed || c.order != original.order;
    assignment_changed = assignment_changed || c.assignment != original.assignment;
  }
  EXPECT_TRUE(order_changed);
  EXPECT_TRUE(assignment_changed);
}

TEST(Mutation, SingleTaskGraphIsStable) {
  TaskGraph g(1);
  Rng rng(14);
  Chromosome c;
  c.order = {0};
  c.assignment = {0};
  for (int i = 0; i < 10; ++i) {
    mutate_once(c, g, 3, rng);
    EXPECT_EQ(c.order, std::vector<TaskId>{0});
    EXPECT_LT(c.assignment[0], 3);
  }
}

}  // namespace
}  // namespace rts
