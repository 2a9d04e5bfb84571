#include "ga/nsga2.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "ga/eval.hpp"
#include "ga/operators.hpp"
#include "sched/heft.hpp"
#include "util/distributions.hpp"
#include "util/error.hpp"

namespace rts {

namespace {

bool dominates_eval(const Evaluation& a, const Evaluation& b) {
  const bool no_worse = a.makespan <= b.makespan && a.avg_slack >= b.avg_slack;
  const bool better = a.makespan < b.makespan || a.avg_slack > b.avg_slack;
  return no_worse && better;
}

void shuffle_indices(std::vector<std::size_t>& idx, Rng& rng) {
  for (std::size_t i = idx.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(idx[i - 1], idx[j]);
  }
}

}  // namespace

std::vector<std::size_t> non_dominated_ranks(std::span<const Evaluation> evals) {
  const std::size_t n = evals.size();
  std::vector<std::size_t> rank(n, 0);
  std::vector<std::size_t> domination_count(n, 0);
  std::vector<std::vector<std::size_t>> dominated_by(n);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (dominates_eval(evals[i], evals[j])) {
        dominated_by[i].push_back(j);
        ++domination_count[j];
      } else if (dominates_eval(evals[j], evals[i])) {
        dominated_by[j].push_back(i);
        ++domination_count[i];
      }
    }
  }

  std::vector<std::size_t> current;
  for (std::size_t i = 0; i < n; ++i) {
    if (domination_count[i] == 0) current.push_back(i);
  }
  std::size_t level = 0;
  while (!current.empty()) {
    std::vector<std::size_t> next;
    for (const std::size_t i : current) {
      rank[i] = level;
      for (const std::size_t j : dominated_by[i]) {
        if (--domination_count[j] == 0) next.push_back(j);
      }
    }
    current = std::move(next);
    ++level;
  }
  return rank;
}

std::vector<double> crowding_distances(std::span<const Evaluation> evals) {
  const std::size_t n = evals.size();
  std::vector<double> distance(n, 0.0);
  if (n <= 2) {
    std::fill(distance.begin(), distance.end(),
              std::numeric_limits<double>::infinity());
    return distance;
  }

  const auto accumulate_objective = [&](auto key) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return key(evals[a]) < key(evals[b]);
    });
    const double lo = key(evals[order.front()]);
    const double hi = key(evals[order.back()]);
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    if (hi == lo) return;  // degenerate objective: interior adds nothing
    for (std::size_t k = 1; k + 1 < n; ++k) {
      distance[order[k]] +=
          (key(evals[order[k + 1]]) - key(evals[order[k - 1]])) / (hi - lo);
    }
  };
  accumulate_objective([](const Evaluation& e) { return e.makespan; });
  accumulate_objective([](const Evaluation& e) { return e.avg_slack; });
  return distance;
}

Nsga2Result run_nsga2(const TaskGraph& graph, const Platform& platform,
                      const Matrix<double>& costs, const Nsga2Config& config) {
  RTS_REQUIRE(config.population_size >= 4, "population size must be at least 4");
  RTS_REQUIRE(config.max_generations >= 1, "need at least one generation");
  RTS_REQUIRE(config.crossover_prob >= 0.0 && config.crossover_prob <= 1.0,
              "crossover probability outside [0,1]");
  RTS_REQUIRE(config.mutation_prob >= 0.0 && config.mutation_prob <= 1.0,
              "mutation probability outside [0,1]");
  graph.validate();

  const std::size_t np = config.population_size + config.population_size % 2;
  const std::size_t proc_count = platform.proc_count();
  Rng rng(config.seed);

  struct Individual {
    Chromosome chrom;
    Evaluation eval;
  };

  const ListScheduleResult heft = heft_schedule(graph, platform, costs);

  // One reusable workspace scores every candidate of the run (the offspring
  // loop interleaves evaluation with the RNG-driven operators, so it stays
  // serial; see ga/eval.hpp).
  EvalWorkspace ws(graph, platform, costs);

  std::vector<Individual> pop;
  pop.reserve(np);
  if (config.seed_with_heft) {
    Chromosome c = encode_schedule(graph, platform, heft.schedule, costs);
    Evaluation e = ws.evaluate(c);
    pop.push_back(Individual{std::move(c), e});
  }
  while (pop.size() < np) {
    Chromosome c = random_chromosome(graph, proc_count, rng);
    Evaluation e = ws.evaluate(c);
    pop.push_back(Individual{std::move(c), e});
  }

  std::vector<Evaluation> evals(np);
  IdVector<TaskId, std::uint8_t> crossover_mask;
  IdVector<TaskId, std::size_t> mutation_positions;
  for (std::size_t gen = 0; gen < config.max_generations; ++gen) {
    // Rank + crowding of the current population drive the mating tournament.
    for (std::size_t i = 0; i < np; ++i) evals[i] = pop[i].eval;
    const auto rank = non_dominated_ranks(evals);
    // Crowding computed per rank class.
    std::vector<double> crowd(np, 0.0);
    {
      const std::size_t max_rank = *std::max_element(rank.begin(), rank.end());
      for (std::size_t r = 0; r <= max_rank; ++r) {
        std::vector<std::size_t> members;
        for (std::size_t i = 0; i < np; ++i) {
          if (rank[i] == r) members.push_back(i);
        }
        std::vector<Evaluation> class_evals;
        class_evals.reserve(members.size());
        for (const std::size_t i : members) class_evals.push_back(evals[i]);
        const auto d = crowding_distances(class_evals);
        for (std::size_t k = 0; k < members.size(); ++k) crowd[members[k]] = d[k];
      }
    }
    const auto crowded_better = [&](std::size_t a, std::size_t b) {
      if (rank[a] != rank[b]) return rank[a] < rank[b];
      return crowd[a] > crowd[b];
    };

    // Offspring: binary tournaments pick parents; crossover + mutation as in
    // the paper's GA.
    std::vector<Individual> offspring;
    offspring.reserve(np);
    std::vector<std::size_t> idx(np);
    while (offspring.size() < np) {
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      shuffle_indices(idx, rng);
      for (std::size_t k = 0; k + 3 < np && offspring.size() < np; k += 4) {
        const std::size_t pa = crowded_better(idx[k], idx[k + 1]) ? idx[k] : idx[k + 1];
        const std::size_t pb =
            crowded_better(idx[k + 2], idx[k + 3]) ? idx[k + 2] : idx[k + 3];
        Chromosome ca;
        Chromosome cb;
        if (sample_bernoulli(rng, config.crossover_prob)) {
          crossover(pop[pa].chrom, pop[pb].chrom, rng, ca, cb, crossover_mask);
        } else {
          ca = pop[pa].chrom;
          cb = pop[pb].chrom;
        }
        if (sample_bernoulli(rng, config.mutation_prob)) {
          mutate(ca, graph, proc_count, rng, mutation_positions);
        }
        if (sample_bernoulli(rng, config.mutation_prob)) {
          mutate(cb, graph, proc_count, rng, mutation_positions);
        }
        Evaluation ea = ws.evaluate(ca);
        offspring.push_back(Individual{std::move(ca), ea});
        if (offspring.size() < np) {
          Evaluation eb = ws.evaluate(cb);
          offspring.push_back(Individual{std::move(cb), eb});
        }
      }
    }

    // Environmental selection on parents + offspring (elitist).
    std::vector<Individual> merged = std::move(pop);
    merged.insert(merged.end(), std::make_move_iterator(offspring.begin()),
                  std::make_move_iterator(offspring.end()));
    std::vector<Evaluation> merged_evals(merged.size());
    for (std::size_t i = 0; i < merged.size(); ++i) merged_evals[i] = merged[i].eval;
    const auto merged_rank = non_dominated_ranks(merged_evals);

    std::vector<std::size_t> order(merged.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    // Crowding within each rank of the merged pool.
    std::vector<double> merged_crowd(merged.size(), 0.0);
    const std::size_t max_rank =
        *std::max_element(merged_rank.begin(), merged_rank.end());
    for (std::size_t r = 0; r <= max_rank; ++r) {
      std::vector<std::size_t> members;
      for (std::size_t i = 0; i < merged.size(); ++i) {
        if (merged_rank[i] == r) members.push_back(i);
      }
      std::vector<Evaluation> class_evals;
      class_evals.reserve(members.size());
      for (const std::size_t i : members) class_evals.push_back(merged_evals[i]);
      const auto d = crowding_distances(class_evals);
      for (std::size_t k = 0; k < members.size(); ++k) merged_crowd[members[k]] = d[k];
    }
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (merged_rank[a] != merged_rank[b]) return merged_rank[a] < merged_rank[b];
      return merged_crowd[a] > merged_crowd[b];
    });

    pop.clear();
    pop.reserve(np);
    for (std::size_t k = 0; k < np; ++k) pop.push_back(std::move(merged[order[k]]));
  }

  // Final front: rank-0 members, deduplicated by chromosome content.
  for (std::size_t i = 0; i < np; ++i) evals[i] = pop[i].eval;
  const auto final_rank = non_dominated_ranks(evals);
  Nsga2Result result;
  result.heft_makespan = heft.makespan;
  result.generations = config.max_generations;
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < np; ++i) {
    if (final_rank[i] != 0) continue;
    if (!seen.insert(chromosome_hash(pop[i].chrom)).second) continue;
    result.front.push_back(pop[i].chrom);
    result.front_evals.push_back(pop[i].eval);
  }
  return result;
}

}  // namespace rts
