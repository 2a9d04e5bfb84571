// Golden-value regression fixtures for the chromosome-scoring solvers.
//
// Every solver in src/ga/ scores candidates through
// EvalWorkspace::evaluate(const Chromosome&), and the GA engine's result also
// depends on the exact RNG draw sequence of selection, crossover and
// mutation. The self-consistency tests elsewhere (thread-count identity,
// determinism in seed) cannot see a refactor that shifts one draw or one
// rounding: both runs shift together. These fixtures pin the final result of
// fixed (instance, config) pairs to EXACT BITS (hexfloat literals, EXPECT_EQ)
// — best evaluation, iteration count, M_HEFT and chromosome_hash(best) — so a
// fitness or engine refactor must reproduce the solver's output exactly.
//
// Regenerating (only after an *intentional* change of the search, e.g. a new
// operator or RNG): every mismatch message prints the produced value in
// hexfloat; paste those into the tables (values recorded on x86-64 Linux) and
// call out in the accompanying change that solver output shifts.

#include <cstdint>
#include <ios>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "core/stochastic.hpp"
#include "ga/annealing.hpp"
#include "ga/engine.hpp"
#include "ga/local_search.hpp"
#include "ga/nsga2.hpp"

namespace rts {
namespace {

/// Hexfloat rendering so a failing fixture prints the value to paste back.
std::string hex(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

void expect_bits(double got, double want, const char* what, const std::string& name) {
  EXPECT_EQ(got, want) << name << ": " << what << " is " << hex(got) << ", golden "
                       << hex(want);
}

void expect_eval(const Evaluation& got, const Evaluation& want, const std::string& name) {
  expect_bits(got.makespan, want.makespan, "makespan", name);
  expect_bits(got.avg_slack, want.avg_slack, "avg_slack", name);
  expect_bits(got.effective_slack, want.effective_slack, "effective_slack", name);
}

/// Variation knobs; the defaults are GaConfig's (the paper's settings).
struct GaKnobs {
  double crossover_prob = 0.9;
  double mutation_prob = 0.1;
  bool elitism = true;
};

struct GaGolden {
  const char* name;
  std::uint64_t instance_seed;
  std::size_t n;
  std::size_t m;
  double avg_ul;
  ObjectiveKind objective;
  double epsilon;
  std::size_t population;
  bool warm_start;  ///< inject one random chromosome through GaConfig::seeds
  // Golden outputs.
  Evaluation best_eval;
  std::size_t iterations;
  double heft_makespan;
  std::uint64_t best_hash;
  GaKnobs knobs{};
};

// clang-format off
const GaGolden kGaGoldens[] = {
    {"eps1.0", 201, 40, 4, 2.0, ObjectiveKind::kEpsilonConstraint, 1.0, 20, false,
     {0x1.24967399c4c43p+8, 0x1.75fcc70ba780ep+5, 0x0p+0}, 300, 0x1.27a5c9d22f46p+8, 0xcacd8ad43f1c14c7ULL},
    {"eps1.5", 202, 40, 4, 2.0, ObjectiveKind::kEpsilonConstraint, 1.5, 20, false,
     {0x1.b34cfd8013ap+8, 0x1.a40e0ff767a6dp+5, 0x0p+0}, 237, 0x1.2235568a3b4a3p+8, 0x0b3fc2e2c5fec2f1ULL},
    {"effective", 203, 40, 4, 4.0, ObjectiveKind::kEpsilonConstraintEffective, 1.2, 20,
     false, {0x1.e275d7f71de6fp+8, 0x1.6857411ac6162p+5, 0x1.68785de9dd504p+4}, 300, 0x1.9988a103e949cp+8, 0x40119b054448a4fbULL},
    {"odd_population", 204, 30, 3, 2.0, ObjectiveKind::kEpsilonConstraint, 1.2, 7, false,
     {0x1.2f45257c552c7p+8, 0x1.b5f2e0e560321p+5, 0x0p+0}, 300, 0x1.03a91105b35dap+8, 0x15518abfb0a5cfbfULL},
    {"warm_start", 205, 40, 4, 2.0, ObjectiveKind::kEpsilonConstraint, 1.2, 20, true,
     {0x1.5db3955280dfap+8, 0x1.e8fada14fca3bp+4, 0x0p+0}, 250, 0x1.24fc4629bd921p+8, 0x596bc896cece7b6dULL},
    {"paper_scale", 206, 100, 8, 2.0, ObjectiveKind::kEpsilonConstraint, 1.2, 20, false,
     {0x1.1555e20520c2dp+8, 0x1.f367bc94993a3p+4, 0x0p+0}, 300, 0x1.ce54e55698776p+7, 0xf09708d36cd39327ULL},
    // Converged populations, where most children equal a pool member: every
    // pair recombines and nothing mutates; a search space smaller than the
    // population; the effective-slack objective without elitism.
    {"crossover_only", 210, 40, 4, 2.0, ObjectiveKind::kEpsilonConstraint, 1.2, 20, false,
     {0x1.28bf7ab45c2f3p+8, 0x1.92808f1332caep+4, 0x0p+0}, 111, 0x1.fcfa7acc86875p+7, 0x178cb15e26b0ffe9ULL,
     {1.0, 0.0, true}},
    {"tiny_space", 211, 3, 1, 2.0, ObjectiveKind::kEpsilonConstraint, 1.0, 20, false,
     {0x1.32132a2655312p+8, 0x1.d555555555555p-45, 0x0p+0}, 100, 0x1.32132a2655312p+8, 0x8d2c8448a230a0a1ULL},
    {"effective_no_elitism", 212, 40, 4, 4.0, ObjectiveKind::kEpsilonConstraintEffective, 1.2, 20,
     false, {0x1.98e2c13eff5dfp+8, 0x1.3eba2756d1938p+5, 0x1.2bf6c75a5f158p+4}, 300, 0x1.5b9427668526bp+8, 0xb860ca2c78ef1341ULL,
     {0.9, 0.1, false}},
};
// clang-format on

TEST(GaGolden, RunGaReproducesExactBits) {
  for (const GaGolden& g : kGaGoldens) {
    const auto instance = testing::small_instance(g.n, g.m, g.avg_ul, g.instance_seed);
    const Matrix<double> stddev = duration_stddev(instance.bcet, instance.ul);
    GaConfig config;
    config.population_size = g.population;
    config.max_iterations = 300;
    config.stagnation_window = 100;
    config.seed = g.instance_seed * 7 + 1;
    config.objective = g.objective;
    config.epsilon = g.epsilon;
    config.threads = 1;
    config.crossover_prob = g.knobs.crossover_prob;
    config.mutation_prob = g.knobs.mutation_prob;
    config.elitism = g.knobs.elitism;
    if (g.warm_start) {
      Rng seed_rng(g.instance_seed);
      config.seeds.push_back(random_chromosome(instance.graph, g.m, seed_rng));
    }
    const auto result = run_ga(instance.graph, instance.platform, instance.expected,
                               config, nullptr, &stddev);
    expect_eval(result.best_eval, g.best_eval, g.name);
    EXPECT_EQ(result.iterations, g.iterations)
        << g.name << ": iterations is " << result.iterations;
    expect_bits(result.heft_makespan, g.heft_makespan, "heft_makespan", g.name);
    EXPECT_EQ(chromosome_hash(result.best), g.best_hash)
        << g.name << ": hash is 0x" << std::hex << chromosome_hash(result.best);
  }
}

TEST(GaGolden, Nsga2ReproducesExactBits) {
  const auto instance = testing::small_instance(30, 4, 2.0, 207);
  Nsga2Config config;
  config.population_size = 24;
  config.max_generations = 60;
  config.seed = 3;
  const auto result =
      run_nsga2(instance.graph, instance.platform, instance.expected, config);
  std::uint64_t front_hash = 0;
  for (const Chromosome& c : result.front) {
    front_hash = front_hash * 0x100000001b3ULL ^ chromosome_hash(c);
  }
  EXPECT_EQ(result.front.size(), 24u) << "front size is " << result.front.size();
  EXPECT_EQ(result.generations, 60u) << "generations is " << result.generations;
  expect_bits(result.heft_makespan, 0x1.0397eb54101a7p+7, "heft_makespan", "nsga2");
  ASSERT_FALSE(result.front_evals.empty());
  expect_eval(result.front_evals.front(), {0x1.64417ee4c93dfp+9, 0x1.d0b3d19526f75p+8, 0x0p+0}, "nsga2 front[0]");
  expect_eval(result.front_evals.back(), {0x1.0c16924854e17p+9, 0x1.50822d720d821p+8, 0x0p+0}, "nsga2 front[-1]");
  EXPECT_EQ(front_hash, 0x84ee93bccb7c4842ULL) << "front hash is 0x" << std::hex << front_hash;
}

TEST(GaGolden, SimulatedAnnealingReproducesExactBits) {
  const auto instance = testing::small_instance(40, 4, 3.0, 208);
  SaConfig config;
  config.iterations = 3000;
  config.seed = 5;
  config.epsilon = 1.2;
  const auto result = run_simulated_annealing(instance.graph, instance.platform,
                                              instance.expected, config);
  expect_eval(result.best_eval, {0x1.04b8ff6890f71p+9, 0x1.345a0c51ba03ep+5, 0x0p+0}, "sa");
  EXPECT_EQ(result.iterations, 3000u) << "iterations is " << result.iterations;
  EXPECT_EQ(result.accepted_moves, 1774u) << "accepted_moves is " << result.accepted_moves;
  expect_bits(result.heft_makespan, 0x1.b641de81ef74p+8, "heft_makespan", "sa");
  EXPECT_EQ(chromosome_hash(result.best), 0x21e4b26832ed0307ULL)
      << "hash is 0x" << std::hex << chromosome_hash(result.best);
}

TEST(GaGolden, LocalSearchReproducesExactBits) {
  const auto instance = testing::small_instance(30, 4, 2.0, 209);
  LocalSearchConfig config;
  config.epsilon = 1.2;
  const auto result = run_slack_local_search(instance.graph, instance.platform,
                                             instance.expected, config);
  expect_eval(result.best_eval, {0x1.0b91650a71b67p+8, 0x1.2610951996de1p+6, 0x0p+0}, "local_search");
  EXPECT_EQ(result.evaluations, 542u) << "evaluations is " << result.evaluations;
  EXPECT_EQ(result.improvements, 20u) << "improvements is " << result.improvements;
  expect_bits(result.heft_makespan, 0x1.cefef9743a06cp+7, "heft_makespan", "local_search");
  EXPECT_EQ(chromosome_hash(result.best), 0xd871c2813230b2ecULL)
      << "hash is 0x" << std::hex << chromosome_hash(result.best);
}

}  // namespace
}  // namespace rts
