#include "sched/timing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "../test_helpers.hpp"
#include "ga/chromosome.hpp"
#include "graph/disjunctive.hpp"
#include "graph/topology.hpp"
#include "sched/random_scheduler.hpp"
#include "util/error.hpp"

namespace rts {
namespace {

// --- Hand-computed case 1: a 3-task chain split across two processors.
//
// Graph: 0 -> 1 -> 2, both edges carry 4 units of data; unit transfer rate.
// Schedule: P0 = {0, 2}, P1 = {1}; durations on assigned procs = {2, 3, 5}.
//
// Gs = chain edges plus the zero-data processor edge 0 -> 2.
//   start(0) = 0,            finish = 2
//   start(1) = 2 + 4 = 6,    finish = 9
//   start(2) = max(9 + 4, 2) = 13, finish = 18      => makespan 18
//   Bl(2) = 5; Bl(1) = 3 + 4 + 5 = 12; Bl(0) = 2 + max(4 + 12, 0 + 5) = 18
//   all slacks are 0 (everything is on the critical path).
TEST(Timing, HandComputedChainAcrossProcessors) {
  const TaskGraph g = testing::chain3(4.0);
  const Platform platform(2, 1.0);
  const Schedule s(3, {{0, 2}, {1}});
  Matrix<double> costs(3, 2, 1.0);
  costs(0, 0) = 2.0;
  costs(1, 1) = 3.0;
  costs(2, 0) = 5.0;

  const auto timing = compute_schedule_timing(g, platform, s, costs);
  EXPECT_DOUBLE_EQ(timing.makespan, 18.0);
  EXPECT_DOUBLE_EQ(timing.start[0], 0.0);
  EXPECT_DOUBLE_EQ(timing.start[1], 6.0);
  EXPECT_DOUBLE_EQ(timing.start[2], 13.0);
  EXPECT_DOUBLE_EQ(timing.finish[2], 18.0);
  EXPECT_DOUBLE_EQ(timing.bottom_level[0], 18.0);
  EXPECT_DOUBLE_EQ(timing.bottom_level[1], 12.0);
  EXPECT_DOUBLE_EQ(timing.bottom_level[2], 5.0);
  for (const double sl : timing.slack) EXPECT_DOUBLE_EQ(sl, 0.0);
  EXPECT_DOUBLE_EQ(timing.average_slack, 0.0);
}

// --- Hand-computed case 2: fork-join with one off-critical task.
//
// Graph: 0 -> {1, 2} -> 3, zero data. Schedule: P0 = {0, 1, 3}, P1 = {2};
// durations = {2, 3, 1, 2}.
//   start = {0, 2, 2, 5}, makespan = 7.
//   Bl = {7, 5, 3, 2}; slack = {0, 0, 2, 0}; average slack = 0.5.
TEST(Timing, HandComputedForkJoinSlack) {
  TaskGraph g(4);
  g.add_edge(0, 1, 0.0);
  g.add_edge(0, 2, 0.0);
  g.add_edge(1, 3, 0.0);
  g.add_edge(2, 3, 0.0);
  const Platform platform(2, 1.0);
  const Schedule s(4, {{0, 1, 3}, {2}});
  Matrix<double> costs(4, 2, 1.0);
  costs(0, 0) = 2.0;
  costs(1, 0) = 3.0;
  costs(2, 1) = 1.0;
  costs(3, 0) = 2.0;

  const auto timing = compute_schedule_timing(g, platform, s, costs);
  EXPECT_DOUBLE_EQ(timing.makespan, 7.0);
  EXPECT_DOUBLE_EQ(timing.slack[0], 0.0);
  EXPECT_DOUBLE_EQ(timing.slack[1], 0.0);
  EXPECT_DOUBLE_EQ(timing.slack[2], 2.0);
  EXPECT_DOUBLE_EQ(timing.slack[3], 0.0);
  EXPECT_DOUBLE_EQ(timing.average_slack, 0.5);
}

TEST(Timing, SameProcessorCommunicationIsFree) {
  // Chain on a single processor: data sizes are irrelevant.
  const TaskGraph g = testing::chain3(1000.0);
  const Platform platform(1, 1.0);
  const Schedule s(3, {{0, 1, 2}});
  const Matrix<double> costs(3, 1, 2.0);
  EXPECT_DOUBLE_EQ(compute_makespan(g, platform, s, costs), 6.0);
}

TEST(Timing, ProcessorEdgeSerializesIndependentTasks) {
  // Two independent unit tasks on one processor take 2 time units; on two
  // processors they overlap and take 1.
  TaskGraph g(2);
  const Platform p1(1, 1.0);
  const Platform p2(2, 1.0);
  const Matrix<double> costs1(2, 1, 1.0);
  const Matrix<double> costs2(2, 2, 1.0);
  EXPECT_DOUBLE_EQ(compute_makespan(g, p1, Schedule(2, {{0, 1}}), costs1), 2.0);
  EXPECT_DOUBLE_EQ(compute_makespan(g, p2, Schedule(2, {{0}, {1}}), costs2), 1.0);
}

TEST(Timing, MakespanIntoMatchesMakespan) {
  const auto instance = testing::small_instance(30, 4, 2.0, 5);
  Rng rng(17);
  const auto rand = random_schedule(instance.graph, instance.platform,
                                    instance.expected, rng);
  const TimingEvaluator eval(instance.graph, instance.platform, rand.schedule);
  const auto durations = assigned_durations(instance.expected, rand.schedule);
  std::vector<double> scratch(durations.size());
  EXPECT_DOUBLE_EQ(eval.makespan(durations), eval.makespan_into(durations, scratch));
}

TEST(Timing, EvaluatorIsReusableAcrossDurationVectors) {
  const TaskGraph g = testing::chain3(0.0);
  const Platform platform(1, 1.0);
  const Schedule s(3, {{0, 1, 2}});
  const TimingEvaluator eval(g, platform, s);
  EXPECT_DOUBLE_EQ(eval.makespan(std::vector<double>{1.0, 1.0, 1.0}), 3.0);
  EXPECT_DOUBLE_EQ(eval.makespan(std::vector<double>{2.0, 3.0, 4.0}), 9.0);
}

TEST(Timing, RejectsMismatchedInputs) {
  const TaskGraph g = testing::chain3();
  const Platform platform(2, 1.0);
  const Schedule s(3, {{0, 1, 2}, {}});
  const TimingEvaluator eval(g, platform, s);
  EXPECT_THROW((void)eval.makespan(std::vector<double>{1.0}), InvalidArgument);
  const Schedule wrong_size(2, {{0, 1}, {}});
  EXPECT_THROW(TimingEvaluator(g, platform, wrong_size), InvalidArgument);
}

TEST(Timing, RejectsPrecedenceViolatingSchedule) {
  const TaskGraph g = testing::chain3();
  const Platform platform(1, 1.0);
  const Schedule bad(3, {{1, 0, 2}});
  EXPECT_THROW(TimingEvaluator(g, platform, bad), InvalidArgument);
}

TEST(Timing, RejectsCrossProcessorCyclicGs) {
  // Each sequence is locally consistent; the Gs cycle only appears when the
  // processor edges compose with the graph edges: 0 -> 1 crosses P0 -> P1,
  // 2 -> 3 crosses back, 1 precedes 2 on P1 and 3 precedes 0 on P0, closing
  // 0 -> 1 -> 2 -> 3 -> 0.
  TaskGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const Platform platform(2, 1.0);
  const Schedule bad(4, {{3, 0}, {1, 2}});
  EXPECT_THROW(TimingEvaluator(g, platform, bad), InvalidArgument);
  const Matrix<double> costs(4, 2, 1.0);
  EXPECT_THROW((void)compute_schedule_timing(g, platform, bad, costs),
               InvalidArgument);
  // The same sequences in a feasible interleaving are accepted.
  const Schedule good(4, {{0, 3}, {1, 2}});
  EXPECT_NO_THROW(TimingEvaluator(g, platform, good));
}

TEST(Timing, AssignedDurationsPicksAssignedColumn) {
  Matrix<double> costs(2, 2);
  costs(0, 0) = 1.0;
  costs(0, 1) = 10.0;
  costs(1, 0) = 2.0;
  costs(1, 1) = 20.0;
  const Schedule s(2, {{0}, {1}});
  EXPECT_EQ(assigned_durations(costs, s), (std::vector<double>{1.0, 20.0}));
}

TEST(Timing, GsTopologicalOrderIsValidForGs) {
  const auto instance = testing::small_instance(25, 3, 2.0, 9);
  Rng rng(3);
  const auto rand = random_schedule(instance.graph, instance.platform,
                                    instance.expected, rng);
  const TimingEvaluator eval(instance.graph, instance.platform, rand.schedule);
  const TaskGraph gs =
      make_disjunctive_graph(instance.graph, rand.schedule.sequences());
  EXPECT_TRUE(is_topological_order(gs, eval.gs_topological_order()));
}

// --- Cross-validation sweep: the fast implicit-Gs sweep must agree with an
// independent longest-path computation on the *materialized* disjunctive
// graph (Claim 3.2), across random instances and random schedules.
class TimingCrossValidation : public ::testing::TestWithParam<std::uint64_t> {};

double brute_force_critical_path(const TaskGraph& gs, const Platform& platform,
                                 const Schedule& schedule,
                                 std::span<const double> durations) {
  // Longest path over the explicit Gs with edge weights = comm cost between
  // the assigned processors (zero for zeroed data / same processor).
  const auto order = topological_order(gs);
  std::vector<double> finish(gs.task_count(), 0.0);
  double makespan = 0.0;
  for (const TaskId t : order) {
    double start = 0.0;
    for (const EdgeRef& e : gs.predecessors(t)) {
      const double comm = platform.comm_cost(e.data, schedule.proc_of(e.task),
                                             schedule.proc_of(t));
      start = std::max(start, finish[e.task.index()] + comm);
    }
    finish[t.index()] = start + durations[t.index()];
    makespan = std::max(makespan, finish[t.index()]);
  }
  return makespan;
}

TEST_P(TimingCrossValidation, ImplicitSweepMatchesExplicitDisjunctiveGraph) {
  const std::uint64_t seed = GetParam();
  const auto instance = testing::small_instance(40, 4, 3.0, seed);
  Rng rng(seed ^ 0xabcdu);
  for (int trial = 0; trial < 5; ++trial) {
    const auto rand = random_schedule(instance.graph, instance.platform,
                                      instance.expected, rng);
    const auto durations = assigned_durations(instance.expected, rand.schedule);
    const TimingEvaluator eval(instance.graph, instance.platform, rand.schedule);
    const TaskGraph gs =
        make_disjunctive_graph(instance.graph, rand.schedule.sequences());
    const double expected =
        brute_force_critical_path(gs, instance.platform, rand.schedule, durations);
    EXPECT_NEAR(eval.makespan(durations), expected, 1e-9 * expected);
  }
}

TEST_P(TimingCrossValidation, SlackInvariants) {
  const std::uint64_t seed = GetParam();
  const auto instance = testing::small_instance(40, 4, 3.0, seed);
  Rng rng(seed ^ 0x1234u);
  const auto rand = random_schedule(instance.graph, instance.platform,
                                    instance.expected, rng);
  const auto timing = compute_schedule_timing(instance.graph, instance.platform,
                                              rand.schedule, instance.expected);
  // sigma_i >= 0, some task is critical (slack 0), and Tl + Bl <= M
  // everywhere (Def. 3.3).
  double min_slack = timing.slack[0];
  for (const TaskId t : timing.slack.ids()) {
    ASSERT_GE(timing.slack[t], 0.0);
    ASSERT_LE(timing.start[t] + timing.bottom_level[t], timing.makespan + 1e-9);
    min_slack = std::min(min_slack, timing.slack[t]);
  }
  EXPECT_NEAR(min_slack, 0.0, 1e-9);
  // Average slack consistent with the per-task values (Eqn. 3).
  double sum = 0.0;
  for (const double s : timing.slack) sum += s;
  EXPECT_NEAR(timing.average_slack, sum / static_cast<double>(timing.slack.size()),
              1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimingCrossValidation,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

/// Field-by-field exact comparison of two full timings.
void expect_same_bits(const ScheduleTiming& got, const ScheduleTiming& expected,
                      const std::string& what) {
  EXPECT_EQ(got.makespan, expected.makespan) << what;
  EXPECT_EQ(got.average_slack, expected.average_slack) << what;
  ASSERT_EQ(got.slack.size(), expected.slack.size()) << what;
  for (const TaskId t : expected.slack.ids()) {
    EXPECT_EQ(got.start[t], expected.start[t]) << what << " task " << t.value();
    EXPECT_EQ(got.finish[t], expected.finish[t]) << what << " task " << t.value();
    EXPECT_EQ(got.bottom_level[t], expected.bottom_level[t])
        << what << " task " << t.value();
    EXPECT_EQ(got.slack[t], expected.slack[t]) << what << " task " << t.value();
  }
}

/// Reference timing of a chromosome: a fresh evaluator compiles Gs of the
/// decoded schedule (Kahn order, Def. 3.1 dedup) and sweeps it.
ScheduleTiming reference_timing(const TaskGraph& graph, const Platform& platform,
                                const Chromosome& c, const Matrix<double>& costs) {
  const Schedule schedule = decode(c, platform.proc_count());
  return compute_schedule_timing(graph, platform, schedule, costs);
}

TEST(Timing, RebuildMatchesFreshConstructionAcrossRandomSchedules) {
  // The in-place paths — rebuild(schedule) and the compile-free
  // chromosome_timing_into(order, assignment) — must be bit-identical to a
  // freshly constructed evaluator: same edge costs, and any valid
  // topological order yields the exact same sweep results because max/+
  // over identical operands is exact.
  const auto instance = testing::small_instance(60, 4, 2.0, 11);
  Rng rng(99);
  TimingEvaluator reused(instance.graph, instance.platform);
  TimingEvaluator from_chrom(instance.graph, instance.platform);
  ScheduleTiming reused_timing;
  ScheduleTiming chrom_timing;
  for (int i = 0; i < 50; ++i) {
    const Chromosome c = random_chromosome(instance.graph, 4, rng);
    const Schedule schedule = decode(c, 4);
    const std::vector<double> durations =
        assigned_durations(instance.expected, schedule);

    const TimingEvaluator fresh(instance.graph, instance.platform, schedule);
    const ScheduleTiming expected = fresh.full_timing(durations);

    reused.rebuild(schedule);
    reused.full_timing_into(durations, reused_timing);
    from_chrom.chromosome_timing_into(c.order, c.assignment, instance.expected,
                                      chrom_timing);

    expect_same_bits(reused_timing, expected, "rebuild, schedule " + std::to_string(i));
    expect_same_bits(chrom_timing, expected, "chromosome, schedule " + std::to_string(i));
  }
}

TEST(Timing, RebuildRejectsMalformedOrder) {
  const TaskGraph g = testing::chain3(4.0);
  const Platform platform(2, 1.0);
  const Matrix<double> costs = testing::uniform_costs(3, 2, 1.0);
  const std::vector<ProcId> assignment{0, 1, 0};
  TimingEvaluator evaluator(g, platform);
  ScheduleTiming out;

  const std::vector<TaskId> valid{0, 1, 2};
  evaluator.chromosome_timing_into(valid, assignment, costs, out);
  EXPECT_EQ(out.makespan, 11.0);  // 1 + 4 + 1 + 4 + 1
  // The chromosome path compiles no Gs.
  EXPECT_FALSE(evaluator.compiled());

  const std::vector<TaskId> twice{0, 0, 2};  // duplicates 0, drops 1
  EXPECT_THROW(evaluator.chromosome_timing_into(twice, assignment, costs, out),
               InvalidArgument);

  const std::vector<TaskId> reversed{2, 1, 0};  // contradicts 0 -> 1 -> 2
  EXPECT_THROW(evaluator.chromosome_timing_into(reversed, assignment, costs, out),
               InvalidArgument);

  const std::vector<TaskId> outside{0, 1, 3};
  EXPECT_THROW(evaluator.chromosome_timing_into(outside, assignment, costs, out),
               InvalidArgument);

  const std::vector<TaskId> short_order{0, 1};
  EXPECT_THROW(evaluator.chromosome_timing_into(short_order, assignment, costs, out),
               InvalidArgument);
  const std::vector<ProcId> short_assignment{0, 1};
  EXPECT_THROW(evaluator.chromosome_timing_into(valid, short_assignment, costs, out),
               InvalidArgument);
  const Matrix<double> wrong_costs = testing::uniform_costs(3, 3, 1.0);
  EXPECT_THROW(evaluator.chromosome_timing_into(valid, assignment, wrong_costs, out),
               InvalidArgument);

  EXPECT_THROW(TimingEvaluator().chromosome_timing_into(valid, assignment, costs, out),
               InvalidArgument);

  // A rejected call leaves the evaluator usable.
  evaluator.chromosome_timing_into(valid, assignment, costs, out);
  EXPECT_EQ(out.makespan, 11.0);
}

TEST(Timing, ChromosomeProcPredecessorThatIsAlsoGraphPredecessor) {
  // Def. 3.1 keeps one Gs edge when the processor predecessor is also a
  // graph predecessor; the chromosome path visits the pair twice (graph
  // edge + processor slot). The graph edge then costs exactly 0, so the
  // repeat is idempotent under max/+ and the bits match the deduplicated Gs.
  //
  // Hand-computed: chain 0 -> 1 -> 2 (data 4), all on P0, durations
  // {2, 3, 5}: start {0, 2, 5}, makespan 10, Bl {10, 8, 5}, no slack.
  const TaskGraph g = testing::chain3(4.0);
  const Platform platform(2, 1.0);
  Matrix<double> costs(3, 2, 0.0);
  costs(0, 0) = 2.0;
  costs(1, 0) = 3.0;
  costs(2, 0) = 5.0;
  const Chromosome c{{0, 1, 2}, IdVector<TaskId, ProcId>{ProcId{0}, ProcId{0}, ProcId{0}}};
  TimingEvaluator evaluator(g, platform);
  ScheduleTiming out;
  evaluator.chromosome_timing_into(c.order, c.assignment, costs, out);
  EXPECT_EQ(out.makespan, 10.0);
  EXPECT_EQ(out.start[1], 2.0);
  EXPECT_EQ(out.start[2], 5.0);
  EXPECT_EQ(out.bottom_level[0], 10.0);
  EXPECT_EQ(out.average_slack, 0.0);
  expect_same_bits(out, reference_timing(g, platform, c, costs), "chain on one processor");

  // Dense random graphs on two processors: most processor predecessors are
  // also graph predecessors.
  const auto instance = testing::small_instance(40, 2, 2.0, 21);
  Rng rng(5);
  TimingEvaluator dense(instance.graph, instance.platform);
  for (int i = 0; i < 30; ++i) {
    const Chromosome rc = random_chromosome(instance.graph, 2, rng);
    dense.chromosome_timing_into(rc.order, rc.assignment, instance.expected, out);
    expect_same_bits(out,
                     reference_timing(instance.graph, instance.platform, rc,
                                      instance.expected),
                     "two processors, chromosome " + std::to_string(i));
  }
}

TEST(Timing, ChromosomeZeroDataEdgesAcrossProcessorsAreFree) {
  // Chain 0 -> 1 -> 2 with zero data, placed P0, P1, P0 on a slow link:
  // no transfer time anywhere, so the makespan is the sum of durations.
  const TaskGraph g = testing::chain3(0.0);
  const Platform platform(2, 0.5);
  const Matrix<double> costs = testing::uniform_costs(3, 2, 2.0);
  const Chromosome c{{0, 1, 2}, IdVector<TaskId, ProcId>{ProcId{0}, ProcId{1}, ProcId{0}}};
  TimingEvaluator evaluator(g, platform);
  ScheduleTiming out;
  evaluator.chromosome_timing_into(c.order, c.assignment, costs, out);
  EXPECT_EQ(out.start[1], 2.0);
  EXPECT_EQ(out.start[2], 4.0);
  EXPECT_EQ(out.makespan, 6.0);
  expect_same_bits(out, reference_timing(g, platform, c, costs), "zero-data chain");

  // Mixed zero and non-zero data on a heterogeneous platform.
  TaskGraph mixed(4);
  mixed.add_edge(0, 1, 0.0);
  mixed.add_edge(0, 2, 3.0);
  mixed.add_edge(1, 3, 0.0);
  mixed.add_edge(2, 3, 5.0);
  Platform hetero(3, 1.0);
  hetero.set_symmetric_rate(0, 1, 0.25);
  hetero.set_symmetric_rate(1, 2, 4.0);
  const Matrix<double> mixed_costs = testing::uniform_costs(4, 3, 1.5);
  const Chromosome mc{{0, 2, 1, 3},
                      IdVector<TaskId, ProcId>{ProcId{0}, ProcId{1}, ProcId{2}, ProcId{1}}};
  TimingEvaluator mixed_eval(mixed, hetero);
  mixed_eval.chromosome_timing_into(mc.order, mc.assignment, mixed_costs, out);
  expect_same_bits(out, reference_timing(mixed, hetero, mc, mixed_costs), "mixed data");
}

TEST(Timing, ChromosomeRejectsOutOfRangeProcessorBeforeReadingCosts) {
  // A processor outside the platform must throw before costs(t, p) is read:
  // with a 3 x 2 cost matrix, costs(2, 5) would be an out-of-bounds read
  // (the sanitizer build catches it if the check ever moves after the read).
  const TaskGraph g = testing::chain3(1.0);
  const Platform platform(2, 1.0);
  const Matrix<double> costs = testing::uniform_costs(3, 2, 1.0);
  const std::vector<TaskId> order{0, 1, 2};
  TimingEvaluator evaluator(g, platform);
  ScheduleTiming out;
  for (const ProcId bad : {ProcId{2}, ProcId{5}, kNoProc}) {
    for (std::size_t victim = 0; victim < 3; ++victim) {
      std::vector<ProcId> assignment{0, 1, 0};
      assignment[victim] = bad;
      EXPECT_THROW(evaluator.chromosome_timing_into(order, assignment, costs, out),
                   InvalidArgument)
          << "processor " << bad.value() << " on task " << victim;
    }
  }
}

TEST(Timing, ChromosomeRebindRecompilesGraphCsr) {
  // One evaluator, rebound between graphs of the same size and of a
  // different size: every evaluation after a bind() must use the new
  // graph's edges, never the CSR compiled for the previous binding.
  const Platform platform(2, 1.0);
  const Matrix<double> costs = testing::uniform_costs(3, 2, 1.0);
  const TaskGraph chain = testing::chain3(4.0);  // 0 -> 1 -> 2
  TaskGraph join(3);                             // 0 -> 2, 1 -> 2
  join.add_edge(0, 2, 10.0);
  join.add_edge(1, 2, 1.0);
  const Chromosome c{{0, 1, 2}, IdVector<TaskId, ProcId>{ProcId{0}, ProcId{1}, ProcId{1}}};

  TimingEvaluator evaluator(chain, platform);
  ScheduleTiming out;
  evaluator.chromosome_timing_into(c.order, c.assignment, costs, out);
  expect_same_bits(out, reference_timing(chain, platform, c, costs), "chain");
  evaluator.bind(join, platform);
  evaluator.chromosome_timing_into(c.order, c.assignment, costs, out);
  expect_same_bits(out, reference_timing(join, platform, c, costs), "join after rebind");
  EXPECT_EQ(out.makespan, 12.0);  // 1 + 10 transfer + 1

  const auto bigger = testing::small_instance(30, 2, 2.0, 3);
  evaluator.bind(bigger.graph, bigger.platform);
  Rng rng(8);
  const Chromosome rc = random_chromosome(bigger.graph, 2, rng);
  evaluator.chromosome_timing_into(rc.order, rc.assignment, bigger.expected, out);
  expect_same_bits(out,
                   reference_timing(bigger.graph, bigger.platform, rc, bigger.expected),
                   "larger graph after rebind");
  evaluator.bind(chain, platform);
  evaluator.chromosome_timing_into(c.order, c.assignment, costs, out);
  expect_same_bits(out, reference_timing(chain, platform, c, costs), "chain again");
}

TEST(Timing, ChromosomeTimingLeavesCompiledScheduleUntouched) {
  const auto instance = testing::small_instance(20, 3, 2.0, 4);
  Rng rng(12);
  const Chromosome first = random_chromosome(instance.graph, 3, rng);
  const Chromosome second = random_chromosome(instance.graph, 3, rng);
  const Schedule schedule = decode(first, 3);
  const std::vector<double> durations = assigned_durations(instance.expected, schedule);
  TimingEvaluator evaluator(instance.graph, instance.platform, schedule);
  const double before = evaluator.makespan(durations);
  ScheduleTiming out;
  evaluator.chromosome_timing_into(second.order, second.assignment, instance.expected, out);
  EXPECT_TRUE(evaluator.compiled());
  EXPECT_EQ(evaluator.makespan(durations), before);
}

TEST(Timing, UncompiledEvaluatorRefusesToEvaluate) {
  const auto instance = testing::small_instance(10, 2, 2.0, 13);
  const TimingEvaluator bound(instance.graph, instance.platform);
  EXPECT_FALSE(bound.compiled());
  const std::vector<double> durations(instance.task_count(), 1.0);
  EXPECT_THROW(static_cast<void>(bound.makespan(durations)), InvalidArgument);
  EXPECT_THROW(static_cast<void>(bound.full_timing(durations)), InvalidArgument);
}

}  // namespace
}  // namespace rts
