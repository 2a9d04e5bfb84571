// Golden-value regression fixtures for the Monte-Carlo estimators.
//
// Five fixed (instance, seed, N) triples with their published-figure
// statistics (M0, E[M_i], alpha, R1, R2) checked to EXACT BITS (hexfloat
// literals, EXPECT_EQ). The other realization-sweep estimators —
// evaluate_dynamic_eft, evaluate_hybrid, analyze_criticality and
// evaluate_resched — carry the same kind of exact-bit fixtures below. A
// kernel refactor that silently shifts any rounding — a reordered reduction,
// a fused multiply-add (src/ pins -ffp-contract=off for this reason), a
// changed draw order — fails here even if the shift is far below
// statistical noise, so it cannot silently move the published fig5-fig8
// numbers.
//
// Both evaluate_robustness and the scalar oracle (scalar_oracle.hpp) are
// checked against the SAME goldens: the two promise bit-identical output.
//
// Regenerating (only after an *intentional* semantics change, e.g. a new RNG
// or sampler): print the five reports with std::printf("%a") on x86-64
// Linux and update the table; the accompanying PR must call out that the
// published figures shift.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "../test_helpers.hpp"
#include "scalar_oracle.hpp"
#include "sched/heft.hpp"
#include "sched/random_scheduler.hpp"
#include "workload/deadlines.hpp"

namespace rts {
namespace {

struct GoldenTriple {
  std::uint64_t instance_seed;
  std::size_t n;
  std::size_t m;
  double avg_ul;
  std::uint64_t mc_seed;
  std::size_t realizations;
  double expected_makespan;
  double mean_realized_makespan;
  double miss_rate;
  double r1;
  double r2;
};

// clang-format off
const GoldenTriple kGoldens[] = {
    {101, 20, 3, 2.0, 1, 1000,
     0x1.1995f183ad0fbp+8, 0x1.2830d577195eep+8,
     0x1.56872b020c49cp-1, 0x1.9974af5292133p+3, 0x1.7ea922d2769ffp+0},
    {102, 40, 4, 3.0, 2, 2000,
     0x1.08b19dd4670c1p+10, 0x1.119127611445dp+10,
     0x1.2d0e560418937p-1, 0x1.b9f591d5d2d16p+3, 0x1.b35fc845a8ecep+0},
    {103, 60, 8, 4.0, 3, 500,
     0x1.194f87f2347d7p+11, 0x1.1bf4d574d15adp+11,
     0x1.051eb851eb852p-1, 0x1.769ee398caa8ap+3, 0x1.f5f5f5f5f5f5fp+0},
    {104, 80, 4, 5.0, 4, 1500,
     0x1.6424226cd5af7p+12, 0x1.6b876303a7b1ap+12,
     0x1.15d867c3ece2ap-1, 0x1.969140f8b718fp+3, 0x1.d7be95b3434d6p+0},
    {105, 100, 6, 3.0, 5, 1000,
     0x1.2f0581535798fp+11, 0x1.381fdc458d0fep+11,
     0x1.3126e978d4fdfp-1, 0x1.113c065c2bd66p+4, 0x1.ad87bb4671656p+0},
};
// clang-format on

class McGolden : public ::testing::TestWithParam<bool> {};

TEST_P(McGolden, FixedTriplesReproduceExactBits) {
  const bool batched = GetParam();
  for (const GoldenTriple& g : kGoldens) {
    const auto instance =
        testing::small_instance(g.n, g.m, g.avg_ul, g.instance_seed);
    Rng rng(g.instance_seed ^ 0x5eedULL);
    const auto schedule =
        random_schedule(instance.graph, instance.platform, instance.expected, rng)
            .schedule;
    MonteCarloConfig config;
    config.realizations = g.realizations;
    config.seed = g.mc_seed;
    const auto report = batched
                            ? evaluate_robustness(instance, schedule, config)
                            : oracle::scalar_robustness(instance, schedule, config);

    SCOPED_TRACE(::testing::Message()
                 << "instance_seed=" << g.instance_seed << " n=" << g.n
                 << " batched=" << batched);
    EXPECT_EQ(report.expected_makespan, g.expected_makespan);
    EXPECT_EQ(report.mean_realized_makespan, g.mean_realized_makespan);
    EXPECT_EQ(report.miss_rate, g.miss_rate);
    EXPECT_EQ(report.r1, g.r1);
    EXPECT_EQ(report.r2, g.r2);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchedAndScalar, McGolden, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& param_info) {
                           return param_info.param ? "batched" : "scalar";
                         });

// ---- evaluate_dynamic_eft --------------------------------------------------

struct DynamicGolden {
  std::uint64_t instance_seed;
  std::size_t n;
  std::size_t m;
  double avg_ul;
  std::uint64_t mc_seed;
  std::size_t realizations;
  double expected_makespan;
  double mean_realized_makespan;
  double p95_realized_makespan;
  double miss_rate;
  double r1;
  double r2;
};

// clang-format off
const DynamicGolden kDynamicGoldens[] = {
    {201, 30, 4, 3.0, 7, 200,
     0x1.ea6233b3cc271p+7, 0x1.0ada72765129p+8, 0x1.36b9aa1b9c29ep+8,
     0x1.a3d70a3d70a3dp-1, 0x1.48e72cf22f483p+3, 0x1.3831f3831f383p+0},
    {202, 50, 6, 5.0, 8, 120,
     0x1.29756555a6064p+9, 0x1.4b4ebe163aa61p+9, 0x1.9373b414a732ap+9,
     0x1.8p-1, 0x1.dbc725e5d1409p+2, 0x1.5555555555555p+0},
};
// clang-format on

TEST(DynamicGoldens, FixedCasesReproduceExactBits) {
  for (const DynamicGolden& g : kDynamicGoldens) {
    const auto instance =
        testing::small_instance(g.n, g.m, g.avg_ul, g.instance_seed);
    MonteCarloConfig config;
    config.realizations = g.realizations;
    config.seed = g.mc_seed;
    const auto report = evaluate_dynamic_eft(instance, config);

    SCOPED_TRACE(::testing::Message() << "instance_seed=" << g.instance_seed);
    EXPECT_EQ(report.expected_makespan, g.expected_makespan);
    EXPECT_EQ(report.mean_realized_makespan, g.mean_realized_makespan);
    EXPECT_EQ(report.p95_realized_makespan, g.p95_realized_makespan);
    EXPECT_EQ(report.miss_rate, g.miss_rate);
    EXPECT_EQ(report.r1, g.r1);
    EXPECT_EQ(report.r2, g.r2);
  }
}

// ---- evaluate_hybrid -------------------------------------------------------

struct HybridGolden {
  double threshold;
  double expected_makespan;
  double mean_realized_makespan;
  double p95_realized_makespan;
  double miss_rate;
  double r1;
  double r2;
  double rescheduling_rate;
};

// One instance (n=30, m=4, UL 3, random plan), N=150, seed 9. The tight
// threshold trips on most realizations; the loose one never does.
// clang-format off
const HybridGolden kHybridGoldens[] = {
    {0.02,
     0x1.d35a61b63b232p+9, 0x1.504e179366f67p+9, 0x1.ca3654e79f29cp+9,
     0x1.1111111111111p-5, 0x1.0572b0c39215fp+9, 0x1.ep+4,
     0x1.851eb851eb852p-1},
    {10.0,
     0x1.d35a61b63b232p+9, 0x1.d86f607553bbep+9, 0x1.131b82a048f22p+10,
     0x1.1111111111111p-1, 0x1.3c6f19b54e062p+4, 0x1.ep+0,
     0x0p+0},
};
// clang-format on

TEST(HybridGoldens, TrippingAndQuietThresholdsReproduceExactBits) {
  const auto instance = testing::small_instance(30, 4, 3.0, 301);
  Rng rng(301 ^ 0x5eedULL);
  const auto plan =
      random_schedule(instance.graph, instance.platform, instance.expected, rng)
          .schedule;
  for (const HybridGolden& g : kHybridGoldens) {
    MonteCarloConfig config;
    config.realizations = 150;
    config.seed = 9;
    double rate = -1.0;
    const auto report = evaluate_hybrid(instance, plan, g.threshold, config, &rate);

    SCOPED_TRACE(::testing::Message() << "threshold=" << g.threshold);
    EXPECT_EQ(report.expected_makespan, g.expected_makespan);
    EXPECT_EQ(report.mean_realized_makespan, g.mean_realized_makespan);
    EXPECT_EQ(report.p95_realized_makespan, g.p95_realized_makespan);
    EXPECT_EQ(report.miss_rate, g.miss_rate);
    EXPECT_EQ(report.r1, g.r1);
    EXPECT_EQ(report.r2, g.r2);
    EXPECT_EQ(rate, g.rescheduling_rate);
  }
}

// ---- analyze_criticality ---------------------------------------------------

TEST(CriticalityGoldens, FixedCaseReproducesExactBits) {
  const auto instance = testing::small_instance(12, 3, 3.0, 401);
  Rng rng(401 ^ 0x5eedULL);
  const auto schedule =
      random_schedule(instance.graph, instance.platform, instance.expected, rng)
          .schedule;
  CriticalityConfig config;
  config.realizations = 300;
  config.seed = 11;
  const auto report = analyze_criticality(instance, schedule, config);

  // clang-format off
  const std::vector<double> expected_index = {
      0x1.6666666666666p-2, 0x1.4cccccccccccdp-1, 0x1.6666666666666p-2,
      0x1p+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x0p+0, 0x1p+0, 0x1p+0};
  // clang-format on
  EXPECT_EQ(report.criticality_index, expected_index);
  EXPECT_EQ(report.expected_critical_tasks, 0x1.d666666666666p+2);
  EXPECT_EQ(report.normalized_entropy, 0x1.b77246ec178ccp-1);
  EXPECT_EQ(report.safe_tasks, 3u);
}

// ---- evaluate_resched ------------------------------------------------------

TEST(ReschedGoldens, ProbabilisticDropCaseReproducesExactBits) {
  auto instance = testing::small_instance(25, 3, 3.0, 501);
  DeadlineParams deadlines;
  deadlines.oversubscription = 1.5;
  Rng rng(13);
  assign_deadlines(instance, deadlines, rng);
  const auto plan =
      heft_schedule(instance.graph, instance.platform, instance.expected);
  ReschedConfig config;
  config.ga.population_size = 8;
  config.ga.max_iterations = 12;
  config.ga.stagnation_window = 6;
  config.drop = DropPolicyKind::kProbabilistic;
  config.drop_params.mc_samples = 16;
  config.max_resolves = 2;
  ReschedEvalConfig mc;
  mc.realizations = 8;
  mc.seed = 3;
  const auto report = evaluate_resched(instance, plan.schedule, config, mc);

  EXPECT_EQ(report.mean_makespan, 0x1.08991ad1e3908p+8);
  EXPECT_EQ(report.deadline_miss_rate, 0x1.b0a3d70a3d70ap-1);
  EXPECT_EQ(report.mean_value_accrued, 0x1.6654d6c2f9f2p+4);
  EXPECT_EQ(report.value_possible, 0x1.098bbf1e0cc7fp+7);
  EXPECT_EQ(report.mean_dropped, 0x1.ap+1);
  EXPECT_EQ(report.mean_resolves, 0x1.6p+0);
  EXPECT_EQ(report.mean_ga_iterations, 0x1.34p+3);
}

}  // namespace
}  // namespace rts
