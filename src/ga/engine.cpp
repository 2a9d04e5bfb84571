#include "ga/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>

#ifdef RTS_HAVE_OPENMP
#include <omp.h>
#endif

#include "ga/operators.hpp"
#include "util/distributions.hpp"
#include "util/error.hpp"

namespace rts {

namespace {

struct Individual {
  Chromosome chrom;
  Evaluation eval;
};

/// Threads actually used by the population-evaluation loop.
std::size_t resolve_eval_threads(const GaConfig& config) {
#ifdef RTS_HAVE_OPENMP
  return config.threads > 0 ? config.threads
                            : static_cast<std::size_t>(omp_get_max_threads());
#else
  (void)config;
  return 1;
#endif
}

/// The member of `pool` whose chromosome equals `child`, or nullptr.
/// `pool[first]` is compared first: it is the individual the child was bred
/// from, the likeliest match. Full equality stops at the first differing
/// gene, which is cheaper than hashing the child and the whole pool.
const Individual* find_equal(const std::vector<Individual>& pool, const Chromosome& child,
                             std::size_t first) {
  if (child == pool[first].chrom) return &pool[first];
  for (std::size_t j = 0; j < pool.size(); ++j) {
    if (j != first && child == pool[j].chrom) return &pool[j];
  }
  return nullptr;
}

/// Fisher-Yates shuffle driven by our deterministic Rng.
void shuffle_indices(std::vector<std::size_t>& idx, Rng& rng) {
  for (std::size_t i = idx.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(idx[i - 1], idx[j]);
  }
}

}  // namespace

GaResult run_ga(const TaskGraph& graph, const Platform& platform,
                const Matrix<double>& costs, const GaConfig& config,
                const GaObserver& observer, const Matrix<double>* duration_stddev,
                EvalWorkspacePool* scratch) {
  RTS_REQUIRE(config.population_size >= 2, "population size must be at least 2");
  RTS_REQUIRE(config.crossover_prob >= 0.0 && config.crossover_prob <= 1.0,
              "crossover probability outside [0,1]");
  RTS_REQUIRE(config.mutation_prob >= 0.0 && config.mutation_prob <= 1.0,
              "mutation probability outside [0,1]");
  RTS_REQUIRE(config.max_iterations >= 1, "need at least one iteration");
  if (config.objective == ObjectiveKind::kEpsilonConstraintEffective) {
    RTS_REQUIRE(duration_stddev != nullptr,
                "the effective-slack objective needs the duration stddev matrix");
    RTS_REQUIRE(duration_stddev->rows() == graph.task_count() &&
                    duration_stddev->cols() == platform.proc_count(),
                "duration stddev matrix has wrong shape");
    RTS_REQUIRE(config.effective_slack_kappa > 0.0, "kappa must be positive");
  }
  graph.validate();
  // Only the effective-slack objective consumes the stochastic information.
  if (config.objective != ObjectiveKind::kEpsilonConstraintEffective) {
    duration_stddev = nullptr;
  }

  const std::size_t np = config.population_size;
  const std::size_t proc_count = platform.proc_count();
  Rng rng(config.seed);

  // Evaluation workspaces: one per thread, owned by the caller's pool when
  // provided (service workers reuse the grown capacity across jobs).
  EvalWorkspacePool local_pool;
  EvalWorkspacePool& pool = scratch != nullptr ? *scratch : local_pool;
  pool.bind(graph, platform, costs, duration_stddev, config.effective_slack_kappa);
  const std::size_t eval_threads = resolve_eval_threads(config);
  pool.reserve(std::max<std::size_t>(1, eval_threads));

  // Evaluate the listed individuals, in parallel when it pays. Results land
  // in the dense population array and every evaluation is a pure function of
  // its chromosome, so the outcome is bit-identical for any thread count.
  std::size_t evaluations = 0;
  const auto evaluate_many = [&](std::vector<Individual>& individuals,
                                 std::span<const std::size_t> which) {
    evaluations += which.size();
#ifdef RTS_HAVE_OPENMP
    if (eval_threads > 1 && which.size() > 1) {
      const auto total = static_cast<std::int64_t>(which.size());
      // Plain local reference: lambda captures cannot appear in data-sharing
      // clauses, so default(none) needs the pool re-bound outside the region.
      EvalWorkspacePool& ws_pool = pool;
#pragma omp parallel num_threads(static_cast<int>(eval_threads)) \
    default(none) shared(ws_pool, individuals, which, total)
      {
        EvalWorkspace& ws =
            ws_pool.workspace(static_cast<std::size_t>(omp_get_thread_num()));
#pragma omp for schedule(static)
        for (std::int64_t k = 0; k < total; ++k) {
          Individual& ind = individuals[which[static_cast<std::size_t>(k)]];
          ind.eval = ws.evaluate(ind.chrom);
        }
      }
      return;
    }
#endif
    EvalWorkspace& ws = pool.workspace(0);
    for (const std::size_t i : which) {
      individuals[i].eval = ws.evaluate(individuals[i].chrom);
    }
  };

  // HEFT supplies both the ε-constraint bound M_HEFT and (optionally) one
  // seed chromosome (Section 4.2.2).
  const ListScheduleResult heft = heft_schedule(graph, platform, costs);

  std::vector<Individual> pop;
  pop.reserve(np);
  std::unordered_set<std::uint64_t> seen;
  if (config.seed_with_heft) {
    Chromosome c = encode_schedule(graph, platform, heft.schedule, costs);
    seen.insert(chromosome_hash(c));
    pop.push_back(Individual{std::move(c), Evaluation{}});
  }
  // Caller-supplied warm-start seeds (e.g. the rescheduler's incumbent).
  for (const Chromosome& seed : config.seeds) {
    if (pop.size() >= np) break;
    RTS_REQUIRE(is_valid_chromosome(graph, proc_count, seed),
                "warm-start seed chromosome is invalid for this problem");
    if (!seen.insert(chromosome_hash(seed)).second) continue;
    pop.push_back(Individual{seed, Evaluation{}});
  }
  // Uniqueness-checked random fill; on tiny search spaces (few tasks and
  // processors) distinct chromosomes may run out, so duplicates are admitted
  // after a bounded number of rejections.
  std::size_t rejections = 0;
  const std::size_t max_rejections = 64 * np;
  while (pop.size() < np) {
    Chromosome c = random_chromosome(graph, proc_count, rng);
    const std::uint64_t h = chromosome_hash(c);
    if (!seen.insert(h).second && rejections++ < max_rejections) continue;
    pop.push_back(Individual{std::move(c), Evaluation{}});
  }
  std::vector<std::size_t> eval_idx(np);
  for (std::size_t i = 0; i < np; ++i) eval_idx[i] = i;
  evaluate_many(pop, eval_idx);

  // Best-so-far tracking (elitism keeps it monotone, matching the paper's
  // "quality of the best solution is monotonically increasing").
  std::size_t best_idx = 0;
  for (std::size_t i = 1; i < np; ++i) {
    if (better_than(pop[i].eval, pop[best_idx].eval, config.objective, config.epsilon,
                    heft.makespan)) {
      best_idx = i;
    }
  }
  Individual best = pop[best_idx];

  std::vector<GaIterationRecord> history;
  // `force` records regardless of the stride — used for the terminal
  // iteration, whichever stopping rule produced it, so the history always
  // ends at iterations_run and plots are never silently truncated. The
  // dedupe guard keeps a stride-aligned final iteration from appearing twice.
  const auto record = [&](std::size_t iteration, bool force) {
    if (config.history_stride == 0) return;
    if (!force && iteration % config.history_stride != 0) return;
    if (!history.empty() && history.back().iteration == iteration) return;
    const GaIterationRecord rec{iteration, best.eval.makespan, best.eval.avg_slack};
    history.push_back(rec);
    if (observer) observer(rec, best.chrom);
  };
  record(0, false);

  // Generation buffers, sized once: the loop below only copy-assigns into
  // them (reusing every chromosome's capacity) and swaps pop with next, so a
  // steady-state generation allocates nothing.
  std::vector<std::size_t> idx(np);
  std::vector<Evaluation> evals(np);
  std::vector<double> fitness(np);
  std::vector<Individual> intermediate(np);
  std::vector<Individual> next(np);
  std::vector<std::uint8_t> dirty(np);
  std::vector<std::size_t> dirty_idx(np);
  IdVector<TaskId, std::uint8_t> crossover_mask;
  IdVector<TaskId, std::size_t> mutation_positions;
  std::size_t stagnation = 0;
  std::size_t iterations_run = 0;

  for (std::size_t iter = 1; iter <= config.max_iterations; ++iter) {
    iterations_run = iter;
    for (std::size_t i = 0; i < np; ++i) evals[i] = pop[i].eval;
    generation_fitness(evals, config.objective, config.epsilon, heft.makespan, fitness);

    // --- Selection: two systematic tournament passes; every individual
    // fights exactly twice, winners fill the intermediate population (an odd
    // population yields np + 1 winners; the last is dropped).
    const auto winner_of = [&](std::size_t a, std::size_t b) {
      if (fitness[a] != fitness[b]) return fitness[a] > fitness[b] ? a : b;
      // Deterministic tie-break so runs are reproducible.
      return better_than(pop[b].eval, pop[a].eval, config.objective, config.epsilon,
                         heft.makespan)
                 ? b
                 : a;
    };
    std::size_t filled = 0;
    const auto admit = [&](std::size_t winner) {
      if (filled < np) intermediate[filled] = pop[winner];
      ++filled;
    };
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < np; ++i) idx[i] = i;
      shuffle_indices(idx, rng);
      for (std::size_t k = 0; k + 1 < np; k += 2) admit(winner_of(idx[k], idx[k + 1]));
      if (np % 2 == 1) admit(idx[np - 1]);  // bye
    }
    RTS_ENSURE(filled >= np, "selection shrank the population");

    // --- Crossover: shuffle, then each adjacent pair recombines with
    // probability pc (Section 4.2.5); the remainder is copied unchanged.
    for (std::size_t i = 0; i < np; ++i) idx[i] = i;
    shuffle_indices(idx, rng);
    std::fill(dirty.begin(), dirty.end(), std::uint8_t{0});
    for (std::size_t k = 0; k + 1 < np; k += 2) {
      const std::size_t a = idx[k];
      const std::size_t b = idx[k + 1];
      if (sample_bernoulli(rng, config.crossover_prob)) {
        crossover(intermediate[a].chrom, intermediate[b].chrom, rng, next[a].chrom,
                  next[b].chrom, crossover_mask);
        dirty[a] = dirty[b] = 1;
      } else {
        next[a] = intermediate[a];
        next[b] = intermediate[b];
      }
    }
    if (np % 2 == 1) next[idx[np - 1]] = intermediate[idx[np - 1]];

    // --- Mutation with probability pm per individual (Section 4.2.6).
    for (std::size_t i = 0; i < np; ++i) {
      if (sample_bernoulli(rng, config.mutation_prob)) {
        mutate(next[i].chrom, graph, proc_count, rng, mutation_positions);
        dirty[i] = 1;
      }
    }

    // --- Evaluate the changed individuals (in parallel; see evaluate_many).
    // Evaluation is a pure function of the chromosome, so a child equal to a
    // member of the intermediate pool inherits that member's eval bit for
    // bit; in a converged population most children do.
    std::size_t dirty_count = 0;
    for (std::size_t i = 0; i < np; ++i) {
      if (dirty[i] == 0) continue;
      if (const Individual* twin = find_equal(intermediate, next[i].chrom, i)) {
        next[i].eval = twin->eval;
      } else {
        dirty_idx[dirty_count++] = i;
      }
    }
    evaluate_many(next, std::span<const std::size_t>(dirty_idx.data(), dirty_count));

    // --- Elitism: the weakest newcomer makes room for the best-so-far.
    if (config.elitism) {
      std::size_t worst = 0;
      for (std::size_t i = 1; i < np; ++i) {
        if (better_than(next[worst].eval, next[i].eval, config.objective,
                        config.epsilon, heft.makespan)) {
          worst = i;
        }
      }
      next[worst] = best;
    }

    // --- Best-so-far update and stagnation bookkeeping.
    bool improved = false;
    for (const Individual& ind : next) {
      if (better_than(ind.eval, best.eval, config.objective, config.epsilon,
                      heft.makespan)) {
        best = ind;
        improved = true;
      }
    }
    stagnation = improved ? 0 : stagnation + 1;
    pop.swap(next);
    record(iter, iter == config.max_iterations);
    if (stagnation >= config.stagnation_window) break;
  }
  // A stagnation break above skips the stride filter's max_iterations
  // special case; force-record so history.back().iteration == iterations_run.
  record(iterations_run, true);

  return GaResult{best.chrom,    best.eval,      decode(best.chrom, proc_count),
                  heft.makespan, iterations_run, std::move(history), evaluations};
}

}  // namespace rts
