// rts_fuzz — differential property fuzzer for the scheduling pipeline.
//
// Generates random problem instances across a seeded parameter sweep (task
// count, processors, CCR, uncertainty level, graph shape, heterogeneity),
// runs every scheduling algorithm on each, and pushes every produced
// schedule through the src/check reference validator plus a set of
// metamorphic properties derived from the paper's theory:
//
//   * scaling all execution times and data sizes by c scales M0 by exactly c
//     (every Gs path length scales linearly);
//   * adding a zero-cost edge consistent with the current timing order never
//     decreases the makespan (Gs only gains constraints);
//   * HEFT-seeded metaheuristics (ga, sa, local) never return a solution the
//     HEFT seed beats under the Eqn. 7/8 ordering, and respect the epsilon
//     constraint;
//   * Monte-Carlo robustness reports are bit-identical across thread counts
//     (per-realization RNG substreams);
//   * the batched lane-blocked Monte-Carlo sweep reproduces the scalar
//     oracle's sample vector and statistics exactly, for every lane width
//     (generic and fixed-width kernels alike);
//   * classic lower bounds: M0 >= every assigned duration and >= every
//     processor's total load;
//   * replaying a zero-deviation realization (realized == expected) through
//     the online rescheduler is a no-op: no re-solves, no drops, the plan
//     and its makespan survive untouched;
//   * task dropping is monotone in deadline tightness: under one shared
//     finish-sample matrix, a task dropped at deadline D is still dropped
//     at 0.8 * D, and its estimated completion probability never rises.
//
// Every consumer (each solver, each property) hashes its own RNG substream
// off (seed, instance index), so adding a property or reordering the checks
// never perturbs the randomness of the existing ones.
//
// Before the sweep it runs the validator's mutation self-test (known faults
// injected into valid schedules) so a green run certifies the checker too.
//
// Usage:
//   rts_fuzz [--instances N] [--seed S] [--smoke] [--verbose]
//            [--ga-iters N] [--sa-iters N] [--metamorphic-stride K]
//
// Exits 0 iff the self-test caught every fault class and the sweep found
// zero violations.

#include <cmath>
#include <initializer_list>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/rts.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

// The scalar one-realization-per-pass Monte-Carlo oracle the batched sweep
// is differentially tested against.
#include "../tests/sim/scalar_oracle.hpp"

namespace {

using namespace rts;

int usage() {
  std::cout <<
      R"(usage: rts_fuzz [options]

options:
  --instances N           random instances to sweep (default 200)
  --seed S                root seed of the sweep (default 1)
  --smoke                 tiny budget: 3 instances, small graphs, short runs
  --verbose               print every instance's parameters as it runs
  --ga-iters N            GA generations per instance (default 40)
  --sa-iters N            SA neighbour evaluations per instance (default 600)
  --metamorphic-stride K  run metamorphic properties every K-th instance
                          (default 5; 1 = every instance)
  --big-tasks N           large-instance smoke size (default 10000;
                          0 disables the phase)
)";
  return 2;
}

/// Sweep knobs resolved from the command line.
struct FuzzConfig {
  std::size_t instances = 200;
  std::uint64_t seed = 1;
  bool smoke = false;
  bool verbose = false;
  std::size_t ga_iters = 40;
  std::size_t sa_iters = 600;
  std::size_t metamorphic_stride = 5;
  std::size_t mc_realizations = 100;
};

/// Everything the per-schedule checks need to file a diagnostic.
struct FuzzContext {
  std::size_t instance_index = 0;
  std::string params_summary;
  std::size_t violations = 0;
  std::size_t algorithm_runs = 0;
  std::size_t printed = 0;
  static constexpr std::size_t kMaxPrinted = 20;  ///< detail cap; counts go on

  void report(const std::string& where, const std::string& what) {
    ++violations;
    if (printed < kMaxPrinted) {
      ++printed;
      std::cerr << "VIOLATION [instance " << instance_index << ", "
                << params_summary << "] " << where << ":\n"
                << what;
      if (!what.empty() && what.back() != '\n') std::cerr << '\n';
    }
  }
};

bool close(double a, double b, double tol = 1e-9) {
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Draw the instance parameters of sweep step k from its RNG substream.
PaperInstanceParams draw_params(const FuzzConfig& config, Rng& rng) {
  const auto pick = [&rng](std::initializer_list<double> values) {
    const auto idx = static_cast<std::size_t>(rng() % values.size());
    return *(values.begin() + static_cast<std::ptrdiff_t>(idx));
  };
  PaperInstanceParams params;
  const std::size_t lo = config.smoke ? 6 : 8;
  const std::size_t span = config.smoke ? 10 : 40;
  params.task_count = lo + static_cast<std::size_t>(rng() % span);
  params.proc_count = static_cast<std::size_t>(pick({2, 3, 4, 8}));
  params.ccr = pick({0.1, 0.5, 1.0, 2.0});
  params.avg_ul = pick({1.2, 2.0, 3.0, 5.0});
  params.shape_alpha = pick({0.5, 1.0, 2.0});
  params.v_task = pick({0.3, 0.5, 1.0});
  params.v_mach = pick({0.3, 0.5, 1.0});
  return params;
}

std::string summarize_params(const PaperInstanceParams& p) {
  std::ostringstream os;
  os << "tasks=" << p.task_count << " procs=" << p.proc_count << " ccr=" << p.ccr
     << " ul=" << p.avg_ul << " alpha=" << p.shape_alpha;
  return os.str();
}

/// Rules 1-4 plus the claimed-makespan cross-check and the classic lower
/// bounds every list/metaheuristic schedule must satisfy.
void check_schedule(FuzzContext& ctx, const ScheduleValidator& validator,
                    const ProblemInstance& instance, const std::string& algo,
                    const Schedule& schedule,
                    std::optional<double> claimed_makespan) {
  ++ctx.algorithm_runs;
  const ValidationReport report = validator.validate(schedule, instance.expected);
  if (!report.ok()) {
    ctx.report("algo=" + algo, report.to_string());
    return;
  }
  const std::vector<double> durations =
      assigned_durations(instance.expected, schedule);
  const double makespan =
      compute_makespan(instance.graph, instance.platform, schedule, instance.expected);
  if (claimed_makespan && !close(*claimed_makespan, makespan)) {
    std::ostringstream os;
    os << "claimed makespan " << *claimed_makespan << " != recomputed " << makespan;
    ctx.report("algo=" + algo, os.str());
  }
  std::vector<double> proc_load(instance.proc_count(), 0.0);
  for (std::size_t t = 0; t < durations.size(); ++t) {
    if (makespan < durations[t] - 1e-9 * std::max(1.0, makespan)) {
      std::ostringstream os;
      os << "makespan " << makespan << " below duration " << durations[t]
         << " of task " << t;
      ctx.report("algo=" + algo, os.str());
    }
    proc_load[schedule.proc_of(static_cast<TaskId>(t)).index()] += durations[t];
  }
  for (std::size_t p = 0; p < proc_load.size(); ++p) {
    if (makespan < proc_load[p] - 1e-9 * std::max(1.0, makespan)) {
      std::ostringstream os;
      os << "makespan " << makespan << " below load " << proc_load[p]
         << " of processor " << p;
      ctx.report("algo=" + algo, os.str());
    }
  }
}

/// Rule 5 and the seeded-dominance property for ga/sa/local outputs.
void check_metaheuristic(FuzzContext& ctx, const ScheduleValidator& validator,
                         const ProblemInstance& instance, const std::string& algo,
                         const Schedule& schedule, const Evaluation& eval,
                         double epsilon, double heft_makespan,
                         const Evaluation& heft_eval) {
  const ValidationReport report = validator.validate_solver_output(
      schedule, instance.expected, eval, ObjectiveKind::kEpsilonConstraint, epsilon,
      heft_makespan);
  if (!report.ok()) {
    ctx.report("algo=" + algo, report.to_string());
  }
  // All three metaheuristics start from the HEFT seed and track the best
  // solution under better_than, so the seed can never beat the result.
  if (better_than(heft_eval, eval, ObjectiveKind::kEpsilonConstraint, epsilon,
                  heft_makespan)) {
    std::ostringstream os;
    os << "HEFT seed beats the returned solution: seed slack=" << heft_eval.avg_slack
       << " M0=" << heft_eval.makespan << " vs result slack=" << eval.avg_slack
       << " M0=" << eval.makespan;
    ctx.report("algo=" + algo, os.str());
  }
}

/// Copy `graph` with every edge's data size multiplied by `factor`.
TaskGraph scaled_graph(const TaskGraph& graph, double factor) {
  TaskGraph scaled(graph.task_count());
  for (std::size_t t = 0; t < graph.task_count(); ++t) {
    for (const EdgeRef& e : graph.successors(static_cast<TaskId>(t))) {
      scaled.add_edge(static_cast<TaskId>(t), e.task, e.data * factor);
    }
  }
  return scaled;
}

void check_metamorphic(FuzzContext& ctx, const ProblemInstance& instance,
                       const ListScheduleResult& heft, const Evaluation& ga_eval,
                       double heft_makespan, const FuzzConfig& config,
                       std::uint64_t mc_seed) {
  const TaskGraph& graph = instance.graph;
  const Platform& platform = instance.platform;
  const Schedule& schedule = heft.schedule;
  const std::vector<double> durations =
      assigned_durations(instance.expected, schedule);
  const TimingEvaluator evaluator(graph, platform, schedule);
  const ScheduleTiming timing = evaluator.full_timing(durations);

  // Property: scaling every duration and data size by c scales M0 by c.
  {
    const double c = 2.0;
    const TaskGraph scaled = scaled_graph(graph, c);
    std::vector<double> scaled_durations(durations);
    for (double& d : scaled_durations) d *= c;
    const double scaled_makespan =
        TimingEvaluator(scaled, platform, schedule).makespan(scaled_durations);
    if (!close(scaled_makespan, c * timing.makespan, 1e-9)) {
      std::ostringstream os;
      os << "scaling by " << c << " gave makespan " << scaled_makespan
         << ", expected " << c * timing.makespan;
      ctx.report("metamorphic=scaling", os.str());
    }
  }

  // Property: a zero-cost edge u -> v with start(v) >= start(u) keeps Gs
  // acyclic and never decreases the makespan.
  {
    TaskId u = kNoTask, v = kNoTask;
    const auto n = static_cast<TaskId>(graph.task_count());
    for (TaskId a = 0; a < n && u == kNoTask; ++a) {
      for (TaskId b = 0; b < n; ++b) {
        if (a == b || graph.has_edge(a, b) || graph.has_edge(b, a)) continue;
        if (timing.start[b] >= timing.start[a]) {
          u = a;
          v = b;
          break;
        }
      }
    }
    if (u != kNoTask) {
      TaskGraph augmented = scaled_graph(graph, 1.0);
      augmented.add_edge(u, v, 0.0);
      const double augmented_makespan =
          TimingEvaluator(augmented, platform, schedule).makespan(durations);
      if (augmented_makespan < timing.makespan - 1e-9 * timing.makespan) {
        std::ostringstream os;
        os << "adding zero-cost edge " << u << " -> " << v
           << " decreased makespan from " << timing.makespan << " to "
           << augmented_makespan;
        ctx.report("metamorphic=zero-cost-edge", os.str());
      }
    }
  }

  // Property: the robustness report is bit-identical across thread counts.
  {
    MonteCarloConfig mc;
    mc.realizations = config.mc_realizations;
    mc.seed = mc_seed;
    mc.threads = 1;
    const RobustnessReport one = evaluate_robustness(instance, schedule, mc);
    mc.threads = 2;
    const RobustnessReport two = evaluate_robustness(instance, schedule, mc);
    const bool identical = one.expected_makespan == two.expected_makespan &&
                           one.mean_realized_makespan == two.mean_realized_makespan &&
                           one.stddev_realized_makespan ==
                               two.stddev_realized_makespan &&
                           one.p50_realized_makespan == two.p50_realized_makespan &&
                           one.p95_realized_makespan == two.p95_realized_makespan &&
                           one.p99_realized_makespan == two.p99_realized_makespan &&
                           one.mean_tardiness == two.mean_tardiness &&
                           one.miss_rate == two.miss_rate && one.r1 == two.r1 &&
                           one.r2 == two.r2;
    if (!identical) {
      ctx.report("metamorphic=mc-thread-determinism",
                 "robustness report differs between --threads 1 and 2");
    }
    if (!close(one.expected_makespan, timing.makespan)) {
      std::ostringstream os;
      os << "report M0 " << one.expected_makespan << " != schedule makespan "
         << timing.makespan;
      ctx.report("metamorphic=mc-report-coherence", os.str());
    }
    const bool ordered = one.miss_rate >= 0.0 && one.miss_rate <= 1.0 &&
                         one.mean_tardiness >= 0.0 &&
                         one.p50_realized_makespan <= one.p95_realized_makespan &&
                         one.p95_realized_makespan <= one.p99_realized_makespan &&
                         one.p99_realized_makespan <=
                             one.max_realized_makespan + 1e-12;
    if (!ordered) {
      ctx.report("metamorphic=mc-report-coherence",
                 "tardiness/miss-rate/quantile ordering violated");
    }
  }

  // Property: the batched lane-blocked sweep is bit-identical to the scalar
  // one-realization-per-pass oracle — the full per-realization sample vector
  // and every derived statistic — and the report is invariant under the
  // lane_width knob (metamorphic: lane packing is pure layout). Width 3
  // exercises the generic lane kernel, 8 and 32 the fixed-width
  // register-blocked ones.
  {
    MonteCarloConfig mc;
    mc.realizations = config.mc_realizations;
    mc.seed = mc_seed;
    mc.threads = 1;
    mc.collect_samples = true;
    const RobustnessReport scalar = oracle::scalar_robustness(instance, schedule, mc);
    for (const std::size_t lanes : {std::size_t{3}, std::size_t{8}, std::size_t{32}}) {
      mc.lane_width = lanes;
      const RobustnessReport batched = evaluate_robustness(instance, schedule, mc);
      if (batched.samples != scalar.samples ||
          batched.mean_realized_makespan != scalar.mean_realized_makespan ||
          batched.mean_tardiness != scalar.mean_tardiness ||
          batched.miss_rate != scalar.miss_rate || batched.r1 != scalar.r1 ||
          batched.r2 != scalar.r2) {
        std::ostringstream os;
        os << "batched sweep (lane_width=" << lanes
           << ") diverged from the scalar oracle";
        ctx.report("differential=mc-batched-vs-scalar", os.str());
      }
    }
  }

  // Property: Eqn. 7 feasibility is monotone in epsilon for a fixed schedule.
  if (is_feasible(ga_eval, 1.2, heft_makespan) &&
      !is_feasible(ga_eval, 1.5, heft_makespan)) {
    ctx.report("metamorphic=epsilon-monotone",
               "schedule feasible at epsilon=1.2 but not at 1.5");
  }
}

/// Metamorphic properties of the online rescheduling subsystem (src/resched).
void check_resched_metamorphic(FuzzContext& ctx, const ProblemInstance& instance,
                               const ListScheduleResult& heft,
                               std::uint64_t noop_seed, std::uint64_t drop_seed) {
  const std::size_t n = instance.task_count();

  // Property: a zero-deviation realization (realized == expected) never trips
  // the slack trigger — the rescheduler is a no-op and the plan survives.
  {
    ReschedConfig rc;
    rc.trigger = TriggerKind::kSlackExhaustion;
    rc.ga.seed = noop_seed;
    const ReschedRunResult run =
        run_online_reschedule(instance, heft.schedule, instance.expected, rc);
    bool same_plan = run.resolves == 0;
    for (std::size_t t = 0; same_plan && t < n; ++t) {
      same_plan = run.dropped[t] == 0 &&
                  run.final_schedule.proc_of(static_cast<TaskId>(t)) ==
                      heft.schedule.proc_of(static_cast<TaskId>(t));
    }
    if (!same_plan) {
      std::ostringstream os;
      os << "zero-deviation replay was not a no-op: " << run.resolves
         << " re-solve(s), " << run.decisions.size() << " decision record(s)";
      ctx.report("metamorphic=resched-noop", os.str());
    }
    if (!close(run.makespan, heft.makespan)) {
      std::ostringstream os;
      os << "zero-deviation replay finished at " << run.makespan
         << ", the plan promised " << heft.makespan;
      ctx.report("metamorphic=resched-noop", os.str());
    }
  }

  // Property: dropping is monotone in deadline tightness. Judged under ONE
  // shared finish-sample matrix so the comparison is paired: a task dropped
  // at deadline D must still be dropped at 0.8 * D, and its estimated
  // completion probability must not rise.
  {
    const PartialSchedule partial{heft.schedule,
                                  IdVector<TaskId, std::uint8_t>(n, 0),
                                  IdVector<TaskId, std::uint8_t>(n, 0),
                                  IdVector<TaskId, double>(n, 0.0),
                                  IdVector<TaskId, double>(n, 0.0),
                                  /*decision_time=*/0.0};

    const std::vector<double> expected_durations =
        assigned_durations(instance.expected, heft.schedule);
    const std::vector<double> bcet_durations =
        assigned_durations(instance.bcet, heft.schedule);
    const ScheduleTiming predicted = partial_timing(
        instance.graph, instance.platform, partial, expected_durations);
    const ScheduleTiming optimistic = partial_timing(
        instance.graph, instance.platform, partial, bcet_durations);
    Rng rng(drop_seed);
    const Matrix<double> samples =
        sample_completion_finishes(instance, partial, 32, rng);
    DropContext dctx;
    dctx.instance = &instance;
    dctx.partial = &partial;
    dctx.predicted = &predicted;
    dctx.optimistic = &optimistic;
    dctx.finish_samples = &samples;

    DropPolicyParams params;
    params.min_completion_prob = 0.5;
    for (const DropPolicyKind kind :
         {DropPolicyKind::kDeadlineInfeasible, DropPolicyKind::kProbabilistic}) {
      const auto policy = make_drop_policy(kind, params);
      for (const TaskId task : id_range<TaskId>(n)) {
        const std::size_t t = task.index();
        const double d = predicted.finish[task];
        const DropDecision loose = policy->decide(dctx, task, d);
        const DropDecision tight = policy->decide(dctx, task, 0.8 * d);
        if (loose.dropped && !tight.dropped) {
          std::ostringstream os;
          os << "policy " << to_string(kind) << " drops task " << t
             << " at deadline " << d << " but keeps it at " << 0.8 * d;
          ctx.report("metamorphic=drop-monotone", os.str());
        }
        if (tight.completion_prob > loose.completion_prob + 1e-12) {
          std::ostringstream os;
          os << "policy " << to_string(kind) << ": completion probability of task "
             << t << " rose from " << loose.completion_prob << " to "
             << tight.completion_prob << " as its deadline tightened";
          ctx.report("metamorphic=drop-monotone", os.str());
        }
      }
    }
  }
}

int run(const Options& opts) {
  if (opts.get_bool("help", false)) return usage();
  FuzzConfig config;
  config.smoke = opts.get_bool("smoke", false);
  config.instances =
      static_cast<std::size_t>(opts.get_int("instances", config.smoke ? 3 : 200));
  config.seed = static_cast<std::uint64_t>(opts.get_int("seed", 1));
  config.verbose = opts.get_bool("verbose", false);
  config.ga_iters =
      static_cast<std::size_t>(opts.get_int("ga-iters", config.smoke ? 10 : 40));
  config.sa_iters =
      static_cast<std::size_t>(opts.get_int("sa-iters", config.smoke ? 100 : 600));
  config.metamorphic_stride = static_cast<std::size_t>(
      opts.get_int("metamorphic-stride", config.smoke ? 1 : 5));
  config.mc_realizations = config.smoke ? 50 : 100;
  RTS_REQUIRE(config.metamorphic_stride > 0, "metamorphic stride must be positive");

  // Phase 1: mutation self-test — prove the validator catches every injected
  // fault class before trusting its silence on real schedules.
  std::size_t missed_faults = 0;
  {
    const Rng root(config.seed);
    for (std::size_t shape = 0; shape < 2; ++shape) {
      PaperInstanceParams params;
      params.task_count = shape == 0 ? 24 : 12;
      params.proc_count = shape == 0 ? 4 : 3;
      // The generator may legally draw a single-level DAG with no edges; the
      // mutation self-test needs at least one precedence edge, so redraw.
      ProblemInstance instance = [&] {
        for (std::uint64_t attempt = 0;; ++attempt) {
          RTS_ENSURE(attempt < 64, "could not draw a self-test instance with edges");
          Rng rng = root.substream(0x5e1f + 64 * shape + attempt);
          ProblemInstance candidate = make_paper_instance(params, rng);
          if (candidate.graph.edge_count() > 0) return candidate;
        }
      }();
      const SelfTestReport self_test =
          run_validator_self_test(instance, config.seed + shape);
      for (const SelfTestCase& c : self_test.cases) {
        std::cout << "self-test [" << params.task_count << " tasks] "
                  << to_string(c.fault) << ": "
                  << (c.caught ? "caught" : "MISSED") << " (" << c.note << ")\n";
        if (!c.caught) ++missed_faults;
      }
    }
  }
  if (missed_faults > 0) {
    std::cerr << "self-test: " << missed_faults << " fault class(es) NOT caught\n";
    return 1;
  }

  // Phase 2: the differential sweep.
  FuzzContext ctx;
  const Rng root(config.seed);
  for (std::size_t k = 0; k < config.instances; ++k) {
    Rng rng = root.substream(k + 1);
    const PaperInstanceParams params = draw_params(config, rng);
    const ProblemInstance instance = make_paper_instance(params, rng);
    ctx.instance_index = k;
    ctx.params_summary = summarize_params(params);
    if (config.verbose) {
      std::cout << "instance " << k << ": " << ctx.params_summary << "\n";
    }

    const ScheduleValidator validator(instance.graph, instance.platform);
    const std::uint64_t seed_root = hash_combine_u64(config.seed ^ 0xa1605eedull, k);
    const double epsilon = 1.2;

    const ListScheduleResult heft =
        heft_schedule(instance.graph, instance.platform, instance.expected);
    check_schedule(ctx, validator, instance, "heft", heft.schedule, heft.makespan);
    const ScheduleTiming heft_timing = compute_schedule_timing(
        instance.graph, instance.platform, heft.schedule, instance.expected);
    const Evaluation heft_eval{heft_timing.makespan, heft_timing.average_slack, 0.0};

    const ListScheduleResult heft_la = heft_lookahead_schedule(
        instance.graph, instance.platform, instance.expected);
    check_schedule(ctx, validator, instance, "heft-la", heft_la.schedule,
                   heft_la.makespan);
    const ListScheduleResult cpop =
        cpop_schedule(instance.graph, instance.platform, instance.expected);
    check_schedule(ctx, validator, instance, "cpop", cpop.schedule, cpop.makespan);
    const ListScheduleResult minmin =
        minmin_schedule(instance.graph, instance.platform, instance.expected);
    check_schedule(ctx, validator, instance, "minmin", minmin.schedule,
                   minmin.makespan);
    const ListScheduleResult over = overestimation_schedule(instance, 0.9);
    check_schedule(ctx, validator, instance, "overestimate", over.schedule,
                   over.makespan);

    GaConfig ga_config;
    ga_config.epsilon = epsilon;
    ga_config.max_iterations = config.ga_iters;
    ga_config.stagnation_window = std::max<std::size_t>(10, config.ga_iters / 2);
    ga_config.seed = hash_combine_u64(seed_root, 1);
    const GaResult ga =
        run_ga(instance.graph, instance.platform, instance.expected, ga_config);
    check_schedule(ctx, validator, instance, "ga", ga.best_schedule, std::nullopt);
    check_metaheuristic(ctx, validator, instance, "ga", ga.best_schedule,
                        ga.best_eval, epsilon, ga.heft_makespan, heft_eval);

    SaConfig sa_config;
    sa_config.epsilon = epsilon;
    sa_config.iterations = config.sa_iters;
    sa_config.seed = hash_combine_u64(seed_root, 2);
    const SaResult sa = run_simulated_annealing(instance.graph, instance.platform,
                                                instance.expected, sa_config);
    check_schedule(ctx, validator, instance, "sa", sa.best_schedule, std::nullopt);
    check_metaheuristic(ctx, validator, instance, "sa", sa.best_schedule,
                        sa.best_eval, epsilon, sa.heft_makespan, heft_eval);

    LocalSearchConfig local_config;
    local_config.epsilon = epsilon;
    local_config.seed = hash_combine_u64(seed_root, 3);
    const LocalSearchResult local = run_slack_local_search(
        instance.graph, instance.platform, instance.expected, local_config);
    check_schedule(ctx, validator, instance, "local", local.best_schedule,
                   std::nullopt);
    check_metaheuristic(ctx, validator, instance, "local", local.best_schedule,
                        local.best_eval, epsilon, local.heft_makespan, heft_eval);

    if (k % config.metamorphic_stride == 0) {
      check_metamorphic(ctx, instance, heft, ga.best_eval, ga.heft_makespan, config,
                        hash_combine_u64(seed_root, 4));
      check_resched_metamorphic(ctx, instance, heft, hash_combine_u64(seed_root, 5),
                                hash_combine_u64(seed_root, 6));
    }
  }

  // Phase 3: large-instance smoke. One n = 10k-task instance through the
  // generator, HEFT, the validator and a *reduced-budget* Monte-Carlo pass:
  // the point is exercising index arithmetic and CSR/lane offsets at a scale
  // the differential sweep never reaches, not collecting statistics
  // (tests/sched/test_csr_scale.cpp covers the timing kernel alone at 2^17
  // tasks; this covers the generator-to-report pipeline).
  const auto big_tasks =
      static_cast<std::size_t>(opts.get_int("big-tasks", 10000));
  if (big_tasks > 0) {
    PaperInstanceParams params;
    params.task_count = big_tasks;
    params.proc_count = 8;
    params.avg_ul = 2.0;
    Rng rng = root.substream(0xb16);
    const ProblemInstance big = make_paper_instance(params, rng);
    ctx.instance_index = config.instances;
    ctx.params_summary = summarize_params(params);
    if (config.verbose) {
      std::cout << "big-smoke: " << ctx.params_summary << "\n";
    }
    const ScheduleValidator validator(big.graph, big.platform);
    const ListScheduleResult heft =
        heft_schedule(big.graph, big.platform, big.expected);
    check_schedule(ctx, validator, big, "heft-big", heft.schedule, heft.makespan);
    MonteCarloConfig mc;
    mc.realizations = 16;  // reduced budget: scale smoke, not statistics
    mc.seed = hash_combine_u64(config.seed, 0xb16);
    const RobustnessReport report = evaluate_robustness(big, heft.schedule, mc);
    if (report.realizations != mc.realizations) {
      ctx.report("big-smoke", "robustness report lost realizations");
    }
    if (!close(report.expected_makespan, heft.makespan)) {
      std::ostringstream os;
      os << "expected makespan " << report.expected_makespan
         << " != HEFT makespan " << heft.makespan;
      ctx.report("big-smoke", os.str());
    }
    const bool quantiles_ordered =
        report.p50_realized_makespan <= report.p95_realized_makespan &&
        report.p95_realized_makespan <= report.p99_realized_makespan &&
        report.p99_realized_makespan <= report.max_realized_makespan;
    if (!quantiles_ordered || !(report.mean_realized_makespan > 0.0) ||
        !std::isfinite(report.max_realized_makespan)) {
      std::ostringstream os;
      os << "degenerate robustness report at n=" << big_tasks
         << ": mean=" << report.mean_realized_makespan
         << " p50=" << report.p50_realized_makespan
         << " p95=" << report.p95_realized_makespan
         << " p99=" << report.p99_realized_makespan
         << " max=" << report.max_realized_makespan;
      ctx.report("big-smoke", os.str());
    }
  }

  std::cout << "rts_fuzz: " << config.instances << " instances, "
            << ctx.algorithm_runs << " algorithm runs, " << ctx.violations
            << " violation(s); self-test caught all fault classes\n";
  return ctx.violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const rts::Options opts(argc, argv);
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
