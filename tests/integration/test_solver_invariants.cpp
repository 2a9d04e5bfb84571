// Cross-solver invariant suite: every search algorithm in the library
// (GA in all objective modes, SA, local search, NSGA-II) must uphold the
// same contracts on the same instances — valid chromosomes, evaluations
// consistent with a fresh timing computation, feasibility under its bound,
// and determinism in the seed.

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/stochastic.hpp"
#include "ga/annealing.hpp"
#include "ga/local_search.hpp"
#include "ga/nsga2.hpp"
#include "sched/timing.hpp"

namespace rts {
namespace {

struct SolverCase {
  const char* name;
  // Returns (chromosome, evaluation, heft makespan) for the given instance.
  std::tuple<Chromosome, Evaluation, double> (*run)(const ProblemInstance&,
                                                    std::uint64_t seed);
};

// gtest's default printer dumps the raw bytes of the two pointers, which
// change with address-space randomisation and so made the listed test names
// differ on every run. Print the case name instead.
void PrintTo(const SolverCase& c, std::ostream* os) { *os << c.name; }

std::tuple<Chromosome, Evaluation, double> run_ga_epsilon(const ProblemInstance& inst,
                                                          std::uint64_t seed) {
  GaConfig config;
  config.epsilon = 1.2;
  config.max_iterations = 120;
  config.seed = seed;
  const auto r = run_ga(inst.graph, inst.platform, inst.expected, config);
  return {r.best, r.best_eval, r.heft_makespan};
}

std::tuple<Chromosome, Evaluation, double> run_ga_makespan(const ProblemInstance& inst,
                                                           std::uint64_t seed) {
  GaConfig config;
  config.objective = ObjectiveKind::kMinimizeMakespan;
  config.max_iterations = 120;
  config.seed = seed;
  const auto r = run_ga(inst.graph, inst.platform, inst.expected, config);
  return {r.best, r.best_eval, r.heft_makespan};
}

std::tuple<Chromosome, Evaluation, double> run_ga_slack(const ProblemInstance& inst,
                                                        std::uint64_t seed) {
  GaConfig config;
  config.objective = ObjectiveKind::kMaximizeSlack;
  config.max_iterations = 120;
  config.seed = seed;
  const auto r = run_ga(inst.graph, inst.platform, inst.expected, config);
  return {r.best, r.best_eval, r.heft_makespan};
}

std::tuple<Chromosome, Evaluation, double> run_ga_effective(const ProblemInstance& inst,
                                                            std::uint64_t seed) {
  GaConfig config;
  config.objective = ObjectiveKind::kEpsilonConstraintEffective;
  config.epsilon = 1.2;
  config.max_iterations = 120;
  config.seed = seed;
  const Matrix<double> stddev = duration_stddev(inst.bcet, inst.ul);
  const auto r =
      run_ga(inst.graph, inst.platform, inst.expected, config, nullptr, &stddev);
  return {r.best, r.best_eval, r.heft_makespan};
}

std::tuple<Chromosome, Evaluation, double> run_sa_case(const ProblemInstance& inst,
                                                       std::uint64_t seed) {
  SaConfig config;
  config.epsilon = 1.2;
  config.iterations = 2500;
  config.seed = seed;
  const auto r =
      run_simulated_annealing(inst.graph, inst.platform, inst.expected, config);
  return {r.best, r.best_eval, r.heft_makespan};
}

std::tuple<Chromosome, Evaluation, double> run_local_case(const ProblemInstance& inst,
                                                          std::uint64_t seed) {
  LocalSearchConfig config;
  config.epsilon = 1.2;
  config.seed = seed;
  const auto r =
      run_slack_local_search(inst.graph, inst.platform, inst.expected, config);
  return {r.best, r.best_eval, r.heft_makespan};
}

std::tuple<Chromosome, Evaluation, double> run_nsga_case(const ProblemInstance& inst,
                                                         std::uint64_t seed) {
  Nsga2Config config;
  config.population_size = 16;
  config.max_generations = 40;
  config.seed = seed;
  const auto r = run_nsga2(inst.graph, inst.platform, inst.expected, config);
  // Invariant-check the slack-richest front member.
  std::size_t best = 0;
  for (std::size_t i = 1; i < r.front_evals.size(); ++i) {
    if (r.front_evals[i].avg_slack > r.front_evals[best].avg_slack) best = i;
  }
  return {r.front[best], r.front_evals[best], r.heft_makespan};
}

class SolverInvariants : public ::testing::TestWithParam<SolverCase> {};

TEST_P(SolverInvariants, ResultIsValidAndConsistent) {
  const auto instance = testing::small_instance(35, 4, 3.0, 77);
  const auto [chrom, eval, heft_makespan] = GetParam().run(instance, 11);
  ASSERT_TRUE(is_valid_chromosome(instance.graph, 4, chrom)) << GetParam().name;
  const auto timing = compute_schedule_timing(instance.graph, instance.platform,
                                              decode(chrom, 4), instance.expected);
  EXPECT_DOUBLE_EQ(timing.makespan, eval.makespan) << GetParam().name;
  EXPECT_DOUBLE_EQ(timing.average_slack, eval.avg_slack) << GetParam().name;
  EXPECT_GT(heft_makespan, 0.0);
}

TEST_P(SolverInvariants, DeterministicInSeed) {
  const auto instance = testing::small_instance(25, 4, 3.0, 78);
  const auto [c1, e1, h1] = GetParam().run(instance, 13);
  const auto [c2, e2, h2] = GetParam().run(instance, 13);
  EXPECT_EQ(c1, c2) << GetParam().name;
  EXPECT_EQ(e1.makespan, e2.makespan) << GetParam().name;
}

TEST_P(SolverInvariants, EpsilonBoundedSolversRespectTheirBound) {
  // The makespan-min / slack-max GA modes are unbounded; every other case
  // here uses ε = 1.2.
  const std::string name = GetParam().name;
  if (name == "ga-makespan" || name == "ga-slack" || name == "nsga2") {
    GTEST_SKIP() << "unbounded objective";
  }
  const auto instance = testing::small_instance(35, 4, 3.0, 79);
  const auto [chrom, eval, heft_makespan] = GetParam().run(instance, 17);
  EXPECT_LE(eval.makespan, 1.2 * heft_makespan + 1e-9) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSolvers, SolverInvariants,
    ::testing::Values(SolverCase{"ga-epsilon", run_ga_epsilon},
                      SolverCase{"ga-makespan", run_ga_makespan},
                      SolverCase{"ga-slack", run_ga_slack},
                      SolverCase{"ga-effective", run_ga_effective},
                      SolverCase{"sa", run_sa_case},
                      SolverCase{"local-search", run_local_case},
                      SolverCase{"nsga2", run_nsga_case}),
    [](const ::testing::TestParamInfo<SolverCase>& param_info) {
      std::string name = param_info.param.name;
      for (auto& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace rts
