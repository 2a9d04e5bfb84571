// Online rescheduling ablation — does closing the loop pay, and when does
// dropping hopeless work beat finishing it late?
//
// Sweeps oversubscription level lambda over deadline-annotated instances and
// compares five execution strategies on the same realizations:
//   * one-shot          — the static HEFT plan replayed untouched (baseline);
//   * resched-never     — deadline-risk-triggered re-solves, nothing dropped;
//   * resched-infeasible— drops tasks whose best case already misses;
//   * resched-prob      — probabilistic dropping (MC completion estimates);
//   * resched-prob-cold — same, but cold GA restarts (warm-start cost probe).
// Metrics per cell, averaged over graphs: deadline miss rate, value accrued,
// realized makespan, drops, re-solves, GA generations.
//
// Emits BENCH_resched.json — a recorded baseline with the acceptance booleans
// the rescheduling subsystem is judged by: at lambda >= 1.5 probabilistic
// dropping must cut the miss rate below resched-never, rescheduling alone
// must accrue more value than one-shot, and warm starts must not cost more
// GA generations than cold restarts.
//
// Usage: ablation_resched [--graphs N] [--realizations N] [--tasks N]
//                         [--procs N] [--seed S] [--json PATH] [--smoke]

#include <iostream>
#include <string>
#include <vector>

#include "core/rts.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"

namespace {

using namespace rts;

struct Options {
  std::size_t graphs = 3;
  std::size_t realizations = 24;
  std::size_t tasks = 60;
  std::size_t procs = 4;
  std::uint64_t seed = 7;
  std::string json_path = "BENCH_resched.json";
  bool smoke = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--graphs") {
      o.graphs = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--realizations") {
      o.realizations = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--tasks") {
      o.tasks = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--procs") {
      o.procs = static_cast<std::size_t>(std::stoull(next()));
    } else if (arg == "--seed") {
      o.seed = std::stoull(next());
    } else if (arg == "--json") {
      o.json_path = next();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      std::exit(2);
    }
  }
  if (o.smoke) {
    o.graphs = 2;
    o.realizations = 8;
    o.tasks = 40;
  }
  return o;
}

struct Strategy {
  const char* name;
  bool resched;  // false = replay the static plan untouched
  DropPolicyKind drop;
  bool warm;
};

constexpr Strategy kStrategies[] = {
    {"one-shot", false, DropPolicyKind::kNever, true},
    {"resched-never", true, DropPolicyKind::kNever, true},
    {"resched-infeasible", true, DropPolicyKind::kDeadlineInfeasible, true},
    {"resched-prob", true, DropPolicyKind::kProbabilistic, true},
    {"resched-prob-cold", true, DropPolicyKind::kProbabilistic, false},
};

/// Mean-over-graphs metrics of one (lambda, strategy) cell.
struct Cell {
  double lambda = 0.0;
  const char* strategy = "";
  double miss_rate = 0.0;
  double value_accrued = 0.0;
  double value_possible = 0.0;
  double makespan = 0.0;
  double dropped = 0.0;
  double resolves = 0.0;
  double ga_iterations = 0.0;
};

void accumulate(Cell& cell, const ReschedEvalReport& rep, double inv_graphs) {
  cell.miss_rate += rep.deadline_miss_rate * inv_graphs;
  cell.value_accrued += rep.mean_value_accrued * inv_graphs;
  cell.value_possible += rep.value_possible * inv_graphs;
  cell.makespan += rep.mean_makespan * inv_graphs;
  cell.dropped += rep.mean_dropped * inv_graphs;
  cell.resolves += rep.mean_resolves * inv_graphs;
  cell.ga_iterations += rep.mean_ga_iterations * inv_graphs;
}

int run(const Options& opts) {
  std::cout << "=== Online rescheduling ablation (trigger: deadline-risk) ===\n"
            << "scale: graphs=" << opts.graphs
            << " realizations=" << opts.realizations << " tasks=" << opts.tasks
            << " procs=" << opts.procs << " seed=" << opts.seed
            << (opts.smoke ? " (smoke)" : "") << "\n\n";

  PaperInstanceParams params;
  params.task_count = opts.tasks;
  params.proc_count = opts.procs;
  params.avg_ul = 2.0;

  const Rng root(opts.seed);
  std::vector<Cell> cells;
  ResultTable table({"lambda", "strategy", "miss rate", "value", "value max",
                     "mean E[M]", "dropped", "re-solves", "GA gens"});

  for (const double lambda : {1.0, 1.5, 2.0}) {
    std::vector<Cell> row(std::size(kStrategies));
    for (std::size_t s = 0; s < row.size(); ++s) {
      row[s].lambda = lambda;
      row[s].strategy = kStrategies[s].name;
    }
    const double inv_graphs = 1.0 / static_cast<double>(opts.graphs);
    for (std::size_t g = 0; g < opts.graphs; ++g) {
      Rng rng = root.substream(g + 1);
      ProblemInstance instance = make_paper_instance(params, rng);
      DeadlineParams dl;
      dl.oversubscription = lambda;
      Rng dl_rng(hash_combine_u64(opts.seed ^ 0xd11eull, g));
      assign_deadlines(instance, dl, dl_rng);

      const ListScheduleResult heft =
          heft_schedule(instance.graph, instance.platform, instance.expected);

      ReschedEvalConfig mc;
      mc.realizations = opts.realizations;
      mc.seed = hash_combine_u64(opts.seed ^ 0x4d43ull, g);

      for (std::size_t s = 0; s < std::size(kStrategies); ++s) {
        const Strategy& strat = kStrategies[s];
        ReschedConfig config;
        config.trigger = TriggerKind::kDeadlineRisk;
        config.max_resolves = strat.resched ? 3 : 0;
        config.drop = strat.resched ? strat.drop : DropPolicyKind::kNever;
        config.drop_seed = hash_combine_u64(opts.seed ^ 0xd309ull, g);
        config.ga.seed = hash_combine_u64(opts.seed, 8 * g + s);
        config.warm_start = strat.warm;
        accumulate(row[s], evaluate_resched(instance, heft.schedule, config, mc),
                   inv_graphs);
      }
    }
    for (const Cell& c : row) {
      table.begin_row()
          .add(c.lambda, 1)
          .add(c.strategy)
          .add(c.miss_rate, 4)
          .add(c.value_accrued, 1)
          .add(c.value_possible, 1)
          .add(c.makespan, 1)
          .add(c.dropped, 1)
          .add(c.resolves, 1)
          .add(c.ga_iterations, 1);
      cells.push_back(c);
    }
  }
  table.write_pretty(std::cout);

  // Acceptance: judged at every oversubscribed level (lambda >= 1.5).
  const auto cell = [&](double lambda, const char* name) -> const Cell& {
    for (const Cell& c : cells) {
      if (c.lambda == lambda && std::string(c.strategy) == name) return c;
    }
    std::cerr << "missing cell " << lambda << "/" << name << "\n";
    std::exit(2);
  };
  bool drop_cuts_misses = true;
  bool resched_gains_value = true;
  double warm_gens = 0.0, cold_gens = 0.0;
  for (const double lambda : {1.5, 2.0}) {
    drop_cuts_misses = drop_cuts_misses &&
                       cell(lambda, "resched-prob").miss_rate <
                           cell(lambda, "resched-never").miss_rate;
    resched_gains_value = resched_gains_value &&
                          cell(lambda, "resched-never").value_accrued >
                              cell(lambda, "one-shot").value_accrued;
    warm_gens += cell(lambda, "resched-prob").ga_iterations / 2.0;
    cold_gens += cell(lambda, "resched-prob-cold").ga_iterations / 2.0;
  }
  const bool warm_not_costlier = warm_gens <= cold_gens + 1e-9;
  std::cout << "\nacceptance:\n"
            << "  probabilistic dropping cuts miss rate vs resched-never: "
            << (drop_cuts_misses ? "yes" : "NO") << "\n"
            << "  rescheduling alone accrues more value than one-shot:    "
            << (resched_gains_value ? "yes" : "NO") << "\n"
            << "  warm-start GA generations " << warm_gens << " vs cold "
            << cold_gens << ": " << (warm_not_costlier ? "not costlier" : "COSTLIER")
            << "\n";

  JsonWriter json;
  json.begin_object()
      .field("bench", "ablation_resched")
      .field("smoke", opts.smoke)
      .key("config").begin_object()
      .field("graphs", opts.graphs)
      .field("realizations", opts.realizations)
      .field("tasks", opts.tasks)
      .field("procs", opts.procs)
      .field("seed", opts.seed)
      .end_object()
      .key("cells").begin_array();
  for (const Cell& c : cells) {
    json.begin_object()
        .field("oversubscription", c.lambda)
        .field("strategy", c.strategy)
        .field("deadline_miss_rate", c.miss_rate)
        .field("mean_value_accrued", c.value_accrued)
        .field("value_possible", c.value_possible)
        .field("mean_realized_makespan", c.makespan)
        .field("mean_dropped", c.dropped)
        .field("mean_resolves", c.resolves)
        .field("mean_ga_iterations", c.ga_iterations)
        .end_object();
  }
  json.end_array()
      .key("acceptance").begin_object()
      .field("dropping_cuts_miss_rate", drop_cuts_misses)
      .field("rescheduling_gains_value", resched_gains_value)
      .field("warm_start_not_costlier", warm_not_costlier)
      .field("warm_ga_generations", warm_gens)
      .field("cold_ga_generations", cold_gens)
      .end_object()
      .end_object();
  save_json_file(opts.json_path, json.take());
  std::cout << "wrote " << opts.json_path << "\n";
  return (drop_cuts_misses && resched_gains_value) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
