// Micro-benchmark: GA building blocks — chromosome initialization, the two
// variation operators, fitness evaluation (decode + full timing), and one
// complete generation (amortized, measured via a short run_ga).

#include <benchmark/benchmark.h>

#include "core/rts.hpp"

namespace {

rts::ProblemInstance make_instance(std::size_t tasks, std::size_t procs) {
  rts::PaperInstanceParams params;
  params.task_count = tasks;
  params.proc_count = procs;
  rts::Rng rng(21);
  return rts::make_paper_instance(params, rng);
}

void BM_RandomChromosome(benchmark::State& state) {
  const auto instance = make_instance(static_cast<std::size_t>(state.range(0)), 8);
  rts::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rts::random_chromosome(instance.graph, 8, rng).order.size());
  }
}
BENCHMARK(BM_RandomChromosome)->Arg(100)->Arg(400);

void BM_Crossover(benchmark::State& state) {
  const auto instance = make_instance(static_cast<std::size_t>(state.range(0)), 8);
  rts::Rng rng(2);
  const auto a = rts::random_chromosome(instance.graph, 8, rng);
  const auto b = rts::random_chromosome(instance.graph, 8, rng);
  // Caller-owned offspring and mask, reused across iterations as in run_ga.
  rts::Chromosome child_a;
  rts::Chromosome child_b;
  rts::IdVector<rts::TaskId, std::uint8_t> mask;
  for (auto _ : state) {
    rts::crossover(a, b, rng, child_a, child_b, mask);
    benchmark::DoNotOptimize(child_a.order.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Crossover)->Arg(100)->Arg(400);

void BM_Mutation(benchmark::State& state) {
  const auto instance = make_instance(static_cast<std::size_t>(state.range(0)), 8);
  rts::Rng rng(3);
  auto c = rts::random_chromosome(instance.graph, 8, rng);
  rts::IdVector<rts::TaskId, std::size_t> positions;
  for (auto _ : state) {
    rts::mutate(c, instance.graph, 8, rng, positions);
    benchmark::DoNotOptimize(c.order.data());
  }
}
BENCHMARK(BM_Mutation)->Arg(100)->Arg(400);

void BM_FitnessEvaluation(benchmark::State& state) {
  // Decode + Claim 3.2 timing + slack: the per-chromosome evaluation cost.
  const auto instance = make_instance(static_cast<std::size_t>(state.range(0)), 8);
  rts::Rng rng(4);
  const auto c = rts::random_chromosome(instance.graph, 8, rng);
  for (auto _ : state) {
    const rts::Schedule s = rts::decode(c, 8);
    benchmark::DoNotOptimize(
        rts::compute_schedule_timing(instance.graph, instance.platform, s,
                                     instance.expected)
            .average_slack);
  }
}
BENCHMARK(BM_FitnessEvaluation)->Arg(100)->Arg(400);

void BM_GaGeneration(benchmark::State& state) {
  // Amortized per-generation cost of the full ε-constraint GA (population
  // 20, paper defaults) — run_ga for a fixed number of generations.
  const auto instance = make_instance(100, 8);
  const auto generations = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    rts::GaConfig config;
    config.max_iterations = generations;
    config.stagnation_window = generations;
    config.history_stride = 0;
    config.seed = 5;
    benchmark::DoNotOptimize(
        rts::run_ga(instance.graph, instance.platform, instance.expected, config)
            .best_eval.makespan);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GaGeneration)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
