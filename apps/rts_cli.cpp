// rts — command-line front end for the robust-task-scheduling library.
//
// Subcommands (keep this list and usage() in sync with the dispatch table in
// main):
//   generate  draw a problem instance and write it to a file
//   info      print the statistics of a problem file
//   schedule  schedule a problem file with a chosen algorithm
//   evaluate  Monte-Carlo robustness report of a schedule on a problem
//   resched   Monte-Carlo comparison of online rescheduling (with optional
//             probabilistic task dropping) against the one-shot plan
//   sweep     map the ε-frontier of a problem file (GA per ε + Monte-Carlo)
//
// Typical session:
//   rts generate --tasks 100 --procs 8 --ul 4 --seed 7 --out problem.rts
//   rts schedule --problem problem.rts --algo ga --epsilon 1.2 --out sched.rts
//   rts evaluate --problem problem.rts --schedule sched.rts --realizations 2000

#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "core/rts.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace rts;

int usage() {
  std::cout <<
      R"(usage: rts <command> [options]

commands:
  generate  --out FILE [--tasks N] [--procs M] [--ul U] [--ccr C]
            [--alpha A] [--cc CC] [--vtask V] [--vmach V] [--seed S]
            [--from-dot FILE]   (use a DOT topology instead of a random DAG)
  info      --problem FILE
  schedule  --problem FILE
            --algo heft|heft-la|cpop|minmin|overestimate|ga|ga-stochastic|sa|local
            [--epsilon E] [--quantile Q] [--iters N] [--seed S] [--threads N]
            [--out FILE] [--gantt] [--svg FILE] [--json FILE]
  evaluate  --problem FILE --schedule FILE [--realizations N] [--seed S]
            [--threads N] [--lanes W] [--criticality] [--json FILE]
  resched   --problem FILE [--schedule FILE] [--oversub L]
            [--trigger slack|deadline|cadence] [--slack T] [--cadence N]
            [--max-resolves R] [--drop never|deadline-infeasible|probabilistic]
            [--min-prob P] [--mc-samples K] [--drop-cap F] [--cold] [--validate]
            [--realizations N] [--seed S] [--threads N] [--json FILE]
  sweep     --problem FILE [--eps-max 2.0] [--eps-step 0.2] [--iters N]
            [--realizations N] [--seed S] [--csv FILE]
)";
  return 2;
}

std::string require_opt(const Options& opts, const std::string& key) {
  const auto value = opts.raw(key);
  if (!value) {
    throw InvalidArgument("missing required option --" + key);
  }
  return *value;
}

int cmd_generate(const Options& opts) {
  PaperInstanceParams params;
  params.task_count = static_cast<std::size_t>(opts.get_int("tasks", 100));
  params.proc_count = static_cast<std::size_t>(opts.get_int("procs", 8));
  params.avg_ul = opts.get_double("ul", 2.0);
  params.ccr = opts.get_double("ccr", 0.1);
  params.shape_alpha = opts.get_double("alpha", 1.0);
  params.avg_comp_cost = opts.get_double("cc", 20.0);
  params.v_task = opts.get_double("vtask", 0.5);
  params.v_mach = opts.get_double("vmach", 0.5);
  Rng rng(static_cast<std::uint64_t>(opts.get_int("seed", 1)));

  ProblemInstance instance = [&] {
    const std::string dot_path = opts.get_string("from-dot", "");
    if (dot_path.empty()) return make_paper_instance(params, rng);
    // Imported topology: generate the cost/uncertainty matrices around it.
    std::ifstream dot(dot_path);
    RTS_REQUIRE(dot.good(), "cannot open DOT file: " + dot_path);
    TaskGraph graph = read_dot(dot);
    Platform platform(params.proc_count, 1.0);
    CovModelParams cov;
    cov.mu_task = params.avg_comp_cost;
    cov.v_task = params.v_task;
    cov.v_mach = params.v_mach;
    Matrix<double> bcet = generate_cov_cost_matrix(graph.task_count(),
                                                   params.proc_count, cov, rng);
    UncertaintyParams unc;
    unc.avg_ul = params.avg_ul;
    Matrix<double> ul =
        generate_ul_matrix(graph.task_count(), params.proc_count, unc, rng);
    ProblemInstance inst{std::move(graph), std::move(platform), std::move(bcet),
                         std::move(ul), Matrix<double>{}};
    inst.expected = expected_costs(inst.bcet, inst.ul);
    return inst;
  }();
  const std::string out = require_opt(opts, "out");
  save_problem_file(out, instance);
  std::cout << "wrote " << instance.task_count() << "-task instance ("
            << instance.graph.edge_count() << " edges, " << instance.proc_count()
            << " processors) to " << out << "\n";
  return 0;
}

int cmd_info(const Options& opts) {
  const ProblemInstance instance = load_problem_file(require_opt(opts, "problem"));
  const auto heft = heft_schedule(instance.graph, instance.platform, instance.expected);
  ResultTable table({"property", "value"});
  table.begin_row().add("tasks").add(static_cast<long long>(instance.task_count()));
  table.begin_row().add("edges").add(
      static_cast<long long>(instance.graph.edge_count()));
  table.begin_row().add("processors").add(
      static_cast<long long>(instance.proc_count()));
  table.begin_row().add("height").add(
      static_cast<long long>(graph_height(instance.graph)));
  table.begin_row().add("entry tasks").add(
      static_cast<long long>(instance.graph.entry_tasks().size()));
  table.begin_row().add("exit tasks").add(
      static_cast<long long>(instance.graph.exit_tasks().size()));
  table.begin_row().add("HEFT makespan (M_HEFT)").add(heft.makespan, 3);
  table.write_pretty(std::cout);
  return 0;
}

int cmd_schedule(const Options& opts) {
  const ProblemInstance instance = load_problem_file(require_opt(opts, "problem"));
  const std::string algo = opts.get_string("algo", "ga");
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  std::optional<Schedule> schedule;
  if (algo == "heft") {
    schedule = heft_schedule(instance.graph, instance.platform, instance.expected)
                   .schedule;
  } else if (algo == "heft-la") {
    schedule = heft_lookahead_schedule(instance.graph, instance.platform,
                                       instance.expected)
                   .schedule;
  } else if (algo == "cpop") {
    schedule = cpop_schedule(instance.graph, instance.platform, instance.expected)
                   .schedule;
  } else if (algo == "minmin") {
    schedule = minmin_schedule(instance.graph, instance.platform, instance.expected)
                   .schedule;
  } else if (algo == "overestimate") {
    schedule = overestimation_schedule(instance, opts.get_double("quantile", 0.9))
                   .schedule;
  } else if (algo == "ga" || algo == "ga-stochastic") {
    GaConfig config;
    config.epsilon = opts.get_double("epsilon", 1.0);
    config.max_iterations = static_cast<std::size_t>(opts.get_int("iters", 1000));
    config.seed = seed;
    // Pure performance knob: the GA result is seed-stable for any thread
    // count (parallel population evaluation, see ga/eval.hpp).
    config.threads = static_cast<std::size_t>(opts.get_int("threads", 0));
    if (algo == "ga-stochastic") {
      config.objective = ObjectiveKind::kEpsilonConstraintEffective;
      const Matrix<double> stddev = duration_stddev(instance.bcet, instance.ul);
      schedule = run_ga(instance.graph, instance.platform, instance.expected, config,
                        nullptr, &stddev)
                     .best_schedule;
    } else {
      schedule = run_ga(instance.graph, instance.platform, instance.expected, config)
                     .best_schedule;
    }
  } else if (algo == "sa") {
    SaConfig config;
    config.epsilon = opts.get_double("epsilon", 1.0);
    config.iterations = static_cast<std::size_t>(opts.get_int("iters", 20000));
    config.seed = seed;
    schedule = run_simulated_annealing(instance.graph, instance.platform,
                                       instance.expected, config)
                   .best_schedule;
  } else if (algo == "local") {
    LocalSearchConfig config;
    config.epsilon = opts.get_double("epsilon", 1.0);
    config.seed = seed;
    schedule = run_slack_local_search(instance.graph, instance.platform,
                                      instance.expected, config)
                   .best_schedule;
  }
  if (!schedule) {
    std::cerr << "unknown algorithm: " << algo << "\n";
    return usage();
  }

  const auto timing = compute_schedule_timing(instance.graph, instance.platform,
                                              *schedule, instance.expected);
  std::cout << algo << ": expected makespan M0 = " << format_fixed(timing.makespan, 3)
            << ", average slack = " << format_fixed(timing.average_slack, 3) << "\n";
  if (opts.get_bool("gantt", false)) {
    write_gantt(std::cout, instance.graph, *schedule, timing);
  }
  const std::string svg = opts.get_string("svg", "");
  if (!svg.empty()) {
    std::ofstream file(svg);
    RTS_REQUIRE(file.good(), "cannot open SVG output file: " + svg);
    write_gantt_svg(file, instance.graph, *schedule, timing);
    std::cout << "SVG gantt written to " << svg << "\n";
  }
  const std::string json = opts.get_string("json", "");
  if (!json.empty()) {
    save_json_file(json, timeline_to_json(instance.graph, *schedule, timing));
    std::cout << "timeline JSON written to " << json << "\n";
  }
  const std::string out = opts.get_string("out", "");
  if (!out.empty()) {
    std::ofstream file(out);
    RTS_REQUIRE(file.good(), "cannot open schedule output file: " + out);
    save_schedule(file, *schedule);
    std::cout << "schedule written to " << out << "\n";
  }
  return 0;
}

int cmd_evaluate(const Options& opts) {
  const ProblemInstance instance = load_problem_file(require_opt(opts, "problem"));
  std::ifstream sched_file(require_opt(opts, "schedule"));
  RTS_REQUIRE(sched_file.good(), "cannot open schedule file");
  const Schedule schedule = load_schedule(sched_file);

  MonteCarloConfig config;
  config.realizations = static_cast<std::size_t>(opts.get_int("realizations", 1000));
  config.seed = static_cast<std::uint64_t>(opts.get_int("seed", 42));
  // Pure performance knobs: the report is seed-stable for any thread count
  // and lane width (per-realization RNG substreams plus the bit-identical
  // lane-blocked sweep, see sim/monte_carlo.hpp).
  config.threads = static_cast<std::size_t>(opts.get_int(
      "threads", static_cast<std::int64_t>(std::thread::hardware_concurrency())));
  config.lane_width = static_cast<std::size_t>(opts.get_int(
      "lanes", static_cast<std::int64_t>(config.lane_width)));
  const RobustnessReport report = evaluate_robustness(instance, schedule, config);

  ResultTable table({"metric", "value"});
  table.begin_row().add("expected makespan M0").add(report.expected_makespan);
  table.begin_row().add("mean realized makespan").add(report.mean_realized_makespan);
  table.begin_row().add("stddev realized makespan").add(report.stddev_realized_makespan);
  table.begin_row().add("p50 / p95 / p99").add(
      format_fixed(report.p50_realized_makespan, 2) + " / " +
      format_fixed(report.p95_realized_makespan, 2) + " / " +
      format_fixed(report.p99_realized_makespan, 2));
  table.begin_row().add("mean tardiness E[delta]").add(report.mean_tardiness);
  table.begin_row().add("robustness R1").add(report.r1);
  table.begin_row().add("miss rate alpha").add(report.miss_rate);
  table.begin_row().add("robustness R2").add(report.r2);
  table.begin_row().add("realizations").add(
      static_cast<long long>(report.realizations));
  table.write_pretty(std::cout);

  if (opts.get_bool("criticality", false)) {
    CriticalityConfig crit;
    crit.realizations = config.realizations;
    crit.seed = config.seed ^ 0xc717u;
    const CriticalityReport crit_report =
        analyze_criticality(instance, schedule, crit);
    std::cout << "\ncriticality: E[#critical tasks] = "
              << format_fixed(crit_report.expected_critical_tasks, 2) << " of "
              << instance.task_count() << ", safe tasks = " << crit_report.safe_tasks
              << ", normalized entropy = "
              << format_fixed(crit_report.normalized_entropy, 3) << "\n";
  }
  const std::string json = opts.get_string("json", "");
  if (!json.empty()) {
    save_json_file(json, robustness_to_json(report));
    std::cout << "report JSON written to " << json << "\n";
  }
  return 0;
}

int cmd_resched(const Options& opts) {
  ProblemInstance instance = load_problem_file(require_opt(opts, "problem"));
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));

  // Deadline-free problem files get synthetic deadlines: each task's HEFT
  // finish time divided by the oversubscription level (workload/deadlines.hpp).
  if (!instance.has_deadlines()) {
    DeadlineParams params;
    params.oversubscription = opts.get_double("oversub", 1.5);
    Rng rng(seed ^ 0xd11eul);
    assign_deadlines(instance, params, rng);
    std::cout << "no deadlines in problem file: assigned at oversubscription "
              << format_fixed(params.oversubscription, 2) << "\n";
  }

  Schedule plan = [&] {
    const std::string path = opts.get_string("schedule", "");
    if (path.empty()) {
      return heft_schedule(instance.graph, instance.platform, instance.expected)
          .schedule;
    }
    std::ifstream file(path);
    RTS_REQUIRE(file.good(), "cannot open schedule file: " + path);
    return load_schedule(file);
  }();

  ReschedConfig config;
  const std::string trigger = opts.get_string("trigger", "deadline");
  if (trigger == "slack") {
    config.trigger = TriggerKind::kSlackExhaustion;
  } else if (trigger == "deadline") {
    config.trigger = TriggerKind::kDeadlineRisk;
  } else if (trigger == "cadence") {
    config.trigger = TriggerKind::kCadence;
  } else {
    std::cerr << "unknown trigger: " << trigger << "\n";
    return usage();
  }
  config.slack_threshold = opts.get_double("slack", 0.05);
  config.cadence = static_cast<std::size_t>(opts.get_int("cadence", 10));
  config.max_resolves = static_cast<std::size_t>(opts.get_int("max-resolves", 3));
  const std::string drop = opts.get_string("drop", "probabilistic");
  if (drop == "never") {
    config.drop = DropPolicyKind::kNever;
  } else if (drop == "deadline-infeasible") {
    config.drop = DropPolicyKind::kDeadlineInfeasible;
  } else if (drop == "probabilistic") {
    config.drop = DropPolicyKind::kProbabilistic;
  } else {
    std::cerr << "unknown drop policy: " << drop << "\n";
    return usage();
  }
  config.drop_params.min_completion_prob = opts.get_double("min-prob", 0.25);
  config.drop_params.mc_samples =
      static_cast<std::size_t>(opts.get_int("mc-samples", 32));
  config.drop_fraction_cap = opts.get_double("drop-cap", 0.25);
  config.drop_seed = seed ^ 0xd309ul;
  config.ga.seed = seed;
  config.warm_start = !opts.get_bool("cold", false);
  config.validate = opts.get_bool("validate", false);

  ReschedEvalConfig mc;
  mc.realizations = static_cast<std::size_t>(opts.get_int("realizations", 50));
  mc.seed = seed ^ 0x4d43ul;
  mc.threads = static_cast<std::size_t>(opts.get_int("threads", 0));

  // One-shot baseline: the same replay machinery with rescheduling and
  // dropping disabled, so the comparison isolates the online loop's effect.
  ReschedConfig baseline = config;
  baseline.max_resolves = 0;
  baseline.drop = DropPolicyKind::kNever;
  const ReschedEvalReport base = evaluate_resched(instance, plan, baseline, mc);
  const ReschedEvalReport online = evaluate_resched(instance, plan, config, mc);

  std::cout << "trigger " << to_string(config.trigger) << ", drop "
            << to_string(config.drop) << ", "
            << (config.warm_start ? "warm" : "cold") << " GA restarts\n";
  ResultTable table({"metric", "one-shot", "resched"});
  table.begin_row()
      .add("mean realized makespan")
      .add(base.mean_makespan)
      .add(online.mean_makespan);
  table.begin_row()
      .add("deadline miss rate")
      .add(base.deadline_miss_rate, 4)
      .add(online.deadline_miss_rate, 4);
  table.begin_row()
      .add("mean value accrued")
      .add(base.mean_value_accrued)
      .add(online.mean_value_accrued);
  table.begin_row()
      .add("value possible")
      .add(base.value_possible)
      .add(online.value_possible);
  table.begin_row()
      .add("mean dropped tasks")
      .add(base.mean_dropped, 2)
      .add(online.mean_dropped, 2);
  table.begin_row()
      .add("mean re-solves")
      .add(base.mean_resolves, 2)
      .add(online.mean_resolves, 2);
  table.begin_row()
      .add("mean GA generations")
      .add(base.mean_ga_iterations, 1)
      .add(online.mean_ga_iterations, 1);
  table.write_pretty(std::cout);

  const std::string json = opts.get_string("json", "");
  if (!json.empty()) {
    save_json_file(json, "{\"one_shot\":" + resched_report_to_json(base) +
                             ",\"resched\":" + resched_report_to_json(online) + "}");
    std::cout << "report JSON written to " << json << "\n";
  }
  return 0;
}

int cmd_sweep(const Options& opts) {
  const ProblemInstance instance = load_problem_file(require_opt(opts, "problem"));
  const double eps_max = opts.get_double("eps-max", 2.0);
  const double eps_step = opts.get_double("eps-step", 0.2);
  const auto seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  RTS_REQUIRE(eps_step > 0.0 && eps_max >= 1.0, "invalid epsilon grid");

  MonteCarloConfig mc;
  mc.realizations = static_cast<std::size_t>(opts.get_int("realizations", 1000));
  mc.seed = seed ^ 0x4d43u;

  const auto heft =
      heft_schedule(instance.graph, instance.platform, instance.expected);
  const auto heft_rob = evaluate_robustness(instance, heft.schedule, mc);
  std::cout << "M_HEFT = " << format_fixed(heft.makespan, 3)
            << ", R1_HEFT = " << format_fixed(heft_rob.r1, 3) << "\n\n";

  ResultTable table({"epsilon", "M0", "M0/M_HEFT", "avg slack", "E[tardiness]",
                     "R1", "R2", "p95"});
  for (double eps = 1.0; eps <= eps_max + 1e-9; eps += eps_step) {
    GaConfig ga;
    ga.epsilon = eps;
    ga.max_iterations = static_cast<std::size_t>(opts.get_int("iters", 500));
    ga.seed = seed;
    const auto result =
        run_ga(instance.graph, instance.platform, instance.expected, ga);
    const auto rob = evaluate_robustness(instance, result.best_schedule, mc);
    table.begin_row()
        .add(eps, 2)
        .add(result.best_eval.makespan, 2)
        .add(result.best_eval.makespan / heft.makespan, 3)
        .add(result.best_eval.avg_slack, 2)
        .add(rob.mean_tardiness, 4)
        .add(rob.r1, 2)
        .add(rob.r2, 2)
        .add(rob.p95_realized_makespan, 2);
  }
  table.write_pretty(std::cout);
  const std::string csv = opts.get_string("csv", "");
  if (!csv.empty()) {
    table.save_csv(csv);
    std::cout << "CSV written to " << csv << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const rts::Options opts(argc - 1, argv + 1);
  try {
    if (command == "generate") return cmd_generate(opts);
    if (command == "info") return cmd_info(opts);
    if (command == "schedule") return cmd_schedule(opts);
    if (command == "evaluate") return cmd_evaluate(opts);
    if (command == "resched") return cmd_resched(opts);
    if (command == "sweep") return cmd_sweep(opts);
    std::cerr << "unknown command: " << command << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
