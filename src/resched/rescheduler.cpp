#include "resched/rescheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "check/validator.hpp"
#include "ga/chromosome.hpp"
#include "graph/topology.hpp"
#include "sched/timing.hpp"
#include "sim/realization.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace rts {

std::string_view to_string(TriggerKind kind) noexcept {
  switch (kind) {
    case TriggerKind::kSlackExhaustion: return "slack-exhaustion";
    case TriggerKind::kDeadlineRisk: return "deadline-risk";
    case TriggerKind::kCadence: return "cadence";
  }
  return "unknown";
}

GaConfig default_resched_ga() {
  // Much lighter than the paper's offline budget: re-solves happen inside a
  // Monte-Carlo loop and start from a warm incumbent, so a short run suffices.
  GaConfig ga;
  ga.population_size = 16;
  ga.max_iterations = 60;
  ga.stagnation_window = 15;
  ga.history_stride = 0;
  ga.objective = ObjectiveKind::kMinimizeMakespan;
  return ga;
}

namespace {

/// Per-task durations on the assigned processors of `schedule`, honoring the
/// partial-schedule convention: 0 for frozen (pinned anyway) and dropped.
IdVector<TaskId, double> live_durations(const Matrix<double>& costs,
                                        const Schedule& schedule,
                                        const IdVector<TaskId, std::uint8_t>& frozen,
                                        const IdVector<TaskId, std::uint8_t>& dropped) {
  const std::size_t n = schedule.task_count();
  IdVector<TaskId, double> durations(n, 0.0);
  for (const TaskId t : id_range<TaskId>(n)) {
    if (frozen[t] != 0 || dropped[t] != 0) continue;
    durations[t] = costs(t.index(), schedule.proc_of(t).index());
  }
  return durations;
}

/// Earliest trigger instant in the `actual` trajectory, or +inf. Only events
/// strictly after the previous decision instant count, so every re-solve
/// makes progress.
double find_trigger(const ReschedConfig& config, const ProblemInstance& instance,
                    const PartialSchedule& partial, const ScheduleTiming& actual,
                    const ScheduleTiming& predicted, double planned_makespan) {
  const std::size_t n = partial.task_count();
  const double after = partial.decision_time;
  double tstar = std::numeric_limits<double>::infinity();
  switch (config.trigger) {
    case TriggerKind::kSlackExhaustion: {
      const double budget = config.slack_threshold * planned_makespan;
      for (const TaskId t : id_range<TaskId>(n)) {
        if (partial.dropped[t] != 0 || actual.finish[t] <= after) continue;
        if (actual.finish[t] > predicted.finish[t] + budget) {
          tstar = std::min(tstar, actual.finish[t]);
        }
      }
      break;
    }
    case TriggerKind::kDeadlineRisk: {
      if (!instance.has_deadlines()) break;
      for (const TaskId t : id_range<TaskId>(n)) {
        if (partial.dropped[t] != 0 || actual.finish[t] <= after) continue;
        if (actual.finish[t] > config.risk_threshold * instance.deadline[t]) {
          tstar = std::min(tstar, actual.finish[t]);
        }
      }
      break;
    }
    case TriggerKind::kCadence: {
      std::vector<double> finishes;
      finishes.reserve(n);
      for (const TaskId t : id_range<TaskId>(n)) {
        if (partial.dropped[t] == 0) finishes.push_back(actual.finish[t]);
      }
      std::sort(finishes.begin(), finishes.end());
      for (std::size_t i = 0; i < finishes.size(); ++i) {
        if ((i + 1) % config.cadence == 0 && finishes[i] > after) {
          tstar = finishes[i];
          break;
        }
      }
      break;
    }
  }
  return tstar;
}

}  // namespace

ReschedRunResult run_online_reschedule(const ProblemInstance& instance,
                                       const Schedule& plan,
                                       const Matrix<double>& realized,
                                       const ReschedConfig& config) {
  const TaskGraph& graph = instance.graph;
  const Platform& platform = instance.platform;
  const std::size_t n = instance.task_count();
  const std::size_t m = instance.proc_count();
  RTS_REQUIRE(plan.task_count() == n, "plan does not match the instance");
  RTS_REQUIRE(realized.rows() == n && realized.cols() == m,
              "realized matrix has wrong shape");
  RTS_REQUIRE(config.slack_threshold >= 0.0, "slack threshold must be non-negative");
  RTS_REQUIRE(config.risk_threshold > 0.0, "risk threshold must be positive");
  RTS_REQUIRE(config.cadence > 0, "cadence must be positive");
  RTS_REQUIRE(config.drop_fraction_cap > 0.0 && config.drop_fraction_cap <= 1.0,
              "drop fraction cap must be in (0, 1]");

  const double planned_makespan =
      compute_schedule_timing(graph, platform, plan, instance.expected).makespan;

  // Mutable execution state: the incumbent plan plus frozen/dropped flags and
  // the realized history of the frozen prefix.
  Schedule cur = plan;
  IdVector<TaskId, std::uint8_t> frozen(n, 0);
  IdVector<TaskId, std::uint8_t> dropped(n, 0);
  IdVector<TaskId, double> frozen_start(n, 0.0);
  IdVector<TaskId, double> frozen_finish(n, 0.0);
  double decision_time = 0.0;

  ReschedRunResult result{plan, {}, {}, {}, 0.0, 0, 0, {}, 0, 0.0};
  Rng drop_rng(config.drop_seed);
  const std::vector<TaskId> topo = topological_order(graph);
  const std::unique_ptr<DropPolicy> policy =
      make_drop_policy(config.drop, config.drop_params);

  for (;;) {
    const PartialSchedule part{cur,          frozen,        dropped,
                               frozen_start, frozen_finish, decision_time};
    const IdVector<TaskId, double> rdur = live_durations(realized, cur, frozen, dropped);
    const IdVector<TaskId, double> edur =
        live_durations(instance.expected, cur, frozen, dropped);
    // One replay per event, not a realization loop: each iteration's partial
    // schedule differs.
    const ScheduleTiming actual = partial_timing(graph, platform, part, rdur);

    double tstar = std::numeric_limits<double>::infinity();
    if (result.resolves < config.max_resolves) {
      const ScheduleTiming predicted = partial_timing(graph, platform, part, edur);
      tstar = find_trigger(config, instance, part, actual, predicted, planned_makespan);
    }
    if (!std::isfinite(tstar)) {
      // No (further) intervention: commit the realized trajectory.
      result.final_schedule = cur;
      result.dropped = dropped.raw();
      result.start = actual.start.raw();
      result.finish = actual.finish.raw();
      result.makespan = actual.makespan;
      for (const TaskId t : id_range<TaskId>(n)) {
        if (dropped[t] != 0) {
          ++result.deadline_misses;
        } else if (instance.has_deadlines() &&
                   actual.finish[t] > instance.deadline[t]) {
          ++result.deadline_misses;
        } else {
          result.value_accrued += instance.task_value(t);
        }
      }
      return result;
    }

    // --- Freeze the executed/running prefix at the trigger instant. ---
    decision_time = tstar;
    std::size_t completions = 0;
    for (const TaskId t : id_range<TaskId>(n)) {
      if (dropped[t] != 0) continue;
      if (actual.finish[t] <= tstar) ++completions;
      if (actual.start[t] <= tstar && frozen[t] == 0) {
        frozen[t] = 1;
        frozen_start[t] = actual.start[t];
        frozen_finish[t] = actual.finish[t];
      }
    }

    // --- Drop decisions over the live tasks (descendant-closed). ---
    // Starts non-decrease along each sequence, so the enlarged frozen set is
    // still a prefix of every processor's non-dropped segment and `part2` is
    // well formed without resequencing.
    const PartialSchedule part2{cur,          frozen,        dropped,
                                frozen_start, frozen_finish, decision_time};
    const IdVector<TaskId, double> edur2 =
        live_durations(instance.expected, cur, frozen, dropped);
    const ScheduleTiming predicted2 = partial_timing(graph, platform, part2, edur2);
    ReschedDecisionRecord rec;
    rec.trigger = config.trigger;
    rec.decision_time = tstar;
    rec.completions = completions;
    rec.incumbent_makespan = predicted2.makespan;
    if (instance.has_deadlines() && config.drop != DropPolicyKind::kNever) {
      const IdVector<TaskId, double> bdur2 =
          live_durations(instance.bcet, cur, frozen, dropped);
      const ScheduleTiming optimistic = partial_timing(graph, platform, part2, bdur2);
      Matrix<double> samples;
      if (config.drop == DropPolicyKind::kProbabilistic) {
        samples = sample_completion_finishes(instance, part2,
                                             config.drop_params.mc_samples, drop_rng);
      }
      const DropContext ctx{&instance, &part2, &predicted2, &optimistic,
                            config.drop == DropPolicyKind::kProbabilistic ? &samples
                                                                          : nullptr};
      // Phase 1: ask the policy about every live task. Completion estimates
      // reflect the *incumbent* (pre-drop) schedule, so in heavy
      // oversubscription everything looks doomed at once — acting on all
      // proposals in one round is a death spiral that cancels tasks the
      // post-drop schedule could have saved.
      std::vector<DropDecision> decisions;
      for (const TaskId t : topo) {
        if (frozen[t] != 0 || dropped[t] != 0) continue;
        decisions.push_back(policy->decide(ctx, t, instance.deadline[t]));
      }
      // Phase 2: triage budget. Only the ceil(cap x live) most hopeless
      // proposals (lowest completion probability, then worst deadline margin)
      // are acted on this round; the rest stay live, and the next resolve
      // re-estimates them on the lightened schedule.
      const std::size_t live = decisions.size();
      const std::size_t budget = static_cast<std::size_t>(
          std::ceil(config.drop_fraction_cap * static_cast<double>(live)));
      // A proposal is actionable only when every live descendant is itself
      // proposed: descendant closure then starves nothing that still had a
      // chance, so a drop can only free capacity, never forfeit value. (A
      // frozen task cannot follow a live one, so successors of a live task
      // are live or already dropped.)
      IdVector<TaskId, std::uint8_t> actionable(n, 0);
      for (const DropDecision& d : decisions) {
        if (d.dropped) actionable[d.task] = 1;
      }
      for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const TaskId ti = *it;
        if (actionable[ti] == 0) continue;
        for (const EdgeRef& e : graph.successors(ti)) {
          if (dropped[e.task] == 0 && actionable[e.task] == 0) {
            actionable[ti] = 0;
            break;
          }
        }
      }
      std::vector<std::size_t> proposals;
      for (std::size_t i = 0; i < decisions.size(); ++i) {
        if (decisions[i].dropped && actionable[decisions[i].task] != 0) {
          proposals.push_back(i);
        } else {
          decisions[i].dropped = false;  // not actionable this round
        }
      }
      std::sort(proposals.begin(), proposals.end(),
                [&decisions](std::size_t a, std::size_t b) {
                  const DropDecision& da = decisions[a];
                  const DropDecision& db = decisions[b];
                  if (da.completion_prob != db.completion_prob) {
                    return da.completion_prob < db.completion_prob;
                  }
                  const double ma = da.deadline - da.estimated_finish;
                  const double mb = db.deadline - db.estimated_finish;
                  if (ma != mb) return ma < mb;
                  return da.task < db.task;
                });
      for (std::size_t i = budget; i < proposals.size(); ++i) {
        decisions[proposals[i]].dropped = false;  // spared this round
      }
      for (std::size_t i = 0; i < std::min(budget, proposals.size()); ++i) {
        dropped[decisions[proposals[i]].task] = 1;
      }
      // Phase 3: descendant closure in topological order — a drop (this
      // round's or an earlier one's) starves everything downstream.
      for (DropDecision& d : decisions) {
        if (dropped[d.task] == 0) {
          for (const EdgeRef& e : graph.predecessors(d.task)) {
            if (dropped[e.task] != 0) {
              d.dropped = true;
              d.forced = true;
              d.completion_prob = 0.0;
              dropped[d.task] = 1;
              break;
            }
          }
        }
        if (d.dropped) ++rec.dropped_new;
        rec.drops.push_back(d);
      }
    }

    // --- Re-solve the remaining tasks with the GA. ---
    // Frozen and dropped tasks are nailed down through the cost matrix: their
    // pinned processor carries the realized (resp. a token) duration, every
    // other processor a penalty no optimal chromosome can afford. The
    // projection below overrides their placement anyway; the penalties only
    // keep the GA's search signal clean. Both magnitudes are chosen for
    // float hygiene, not semantics: the penalty stays within a few orders of
    // the real horizon (absolute epsilons in the timing code must remain
    // meaningful), and dropped placeholders get a small POSITIVE duration —
    // zero-duration tasks tie on start times, and tie-breaking inside the
    // insertion builder can then sequence a successor before its predecessor.
    Matrix<double> costs(n, m);
    const double scale = std::max(1.0, planned_makespan);
    const double penalty = 1e3 * scale;
    const double token = 1e-6 * scale;
    for (const TaskId t : id_range<TaskId>(n)) {
      const std::size_t pinned = cur.proc_of(t).index();
      for (std::size_t p = 0; p < m; ++p) {
        if (frozen[t] != 0) {
          costs(t.index(), p) = p == pinned ? frozen_finish[t] - frozen_start[t] : penalty;
        } else if (dropped[t] != 0) {
          costs(t.index(), p) = p == pinned ? token : penalty;
        } else {
          costs(t.index(), p) = instance.expected(t.index(), p);
        }
      }
    }
    GaConfig ga = config.ga;
    ga.objective = ObjectiveKind::kMinimizeMakespan;
    ga.seed = hash_combine_u64(config.ga.seed, result.resolves);
    ga.seeds.clear();
    if (config.warm_start) {
      ga.seeds.push_back(encode_schedule(graph, platform, cur, costs));
    }
    const GaResult sol = run_ga(graph, platform, costs, ga);
    rec.ga_iterations = sol.iterations;
    result.ga_iterations_total += sol.iterations;

    // --- Project the winner back onto the frozen prefix. ---
    // Per processor: frozen history (in execution order), then the remaining
    // tasks the chromosome assigns there (in scheduling-string order), then
    // the dropped placeholders. Acyclic because the frozen set is
    // predecessor-closed, the dropped set descendant-closed, and the
    // scheduling string is precedence-legal.
    ScheduleBuilder builder(n, m);
    for (const ProcId p : id_range<ProcId>(m)) {
      for (const TaskId t : cur.sequence(p)) {
        if (frozen[t] != 0) builder.append(p, t);
      }
    }
    for (const TaskId t : sol.best.order) {
      if (frozen[t] == 0 && dropped[t] == 0) {
        builder.append(sol.best.assignment[t], t);
      }
    }
    for (const TaskId t : sol.best.order) {
      if (dropped[t] != 0) builder.append(cur.proc_of(t), t);
    }
    cur = std::move(builder).build();
    ++result.resolves;

    const IdVector<TaskId, double> edur3 =
        live_durations(instance.expected, cur, frozen, dropped);
    const PartialSchedule revised{cur,          frozen,        dropped,
                                  frozen_start, frozen_finish, decision_time};
    rec.frozen = revised.frozen_count();
    rec.resolved_makespan =
        partial_timing(graph, platform, revised, edur3).makespan;
    result.decisions.push_back(std::move(rec));

    if (config.validate || check_mode_enabled()) {
      const ValidationReport report =
          ScheduleValidator(graph, platform).validate_partial(revised, edur3);
      RTS_ENSURE(report.ok(),
                 "online reschedule produced an invalid partial schedule:\n" +
                     report.to_string());
    }
  }
}

ReschedEvalReport evaluate_resched(const ProblemInstance& instance, const Schedule& plan,
                                   const ReschedConfig& config,
                                   const ReschedEvalConfig& mc) {
  RTS_REQUIRE(mc.realizations > 0, "need at least one realization");
  instance.validate();
  const std::size_t n = instance.task_count();
  const std::size_t m = instance.proc_count();

  struct RunStats {
    double makespan = 0.0;
    double miss_fraction = 0.0;
    double value = 0.0;
    double dropped = 0.0;
    double resolves = 0.0;
    double ga_iterations = 0.0;
  };
  std::vector<RunStats> runs(mc.realizations);
  const Rng root(mc.seed);
  for_each_realization_block(
      mc.realizations, 1, mc.threads, [&] { return Matrix<double>(n, m); },
      [&](Matrix<double>& realized, std::size_t i, std::size_t) {
        Rng rng = root.substream(static_cast<std::uint64_t>(i));
        sample_realized_matrix(instance, rng, realized);
        ReschedConfig run_config = config;
        run_config.drop_seed =
            hash_combine_u64(config.drop_seed, static_cast<std::uint64_t>(i));
        run_config.ga.seed =
            hash_combine_u64(config.ga.seed ^ 0x6a5eedull, static_cast<std::uint64_t>(i));
        run_config.ga.threads = 1;  // the realization loop owns the parallelism
        const ReschedRunResult run =
            run_online_reschedule(instance, plan, realized, run_config);
        RunStats& s = runs[i];
        s.makespan = run.makespan;
        s.miss_fraction =
            static_cast<double>(run.deadline_misses) / static_cast<double>(n);
        s.value = run.value_accrued;
        s.dropped = static_cast<double>(
            std::count(run.dropped.begin(), run.dropped.end(), std::uint8_t{1}));
        s.resolves = static_cast<double>(run.resolves);
        s.ga_iterations = static_cast<double>(run.ga_iterations_total);
      });

  ReschedEvalReport report;
  report.realizations = mc.realizations;
  for (const TaskId t : id_range<TaskId>(n)) {
    report.value_possible += instance.task_value(t);
  }
  const double denom = static_cast<double>(mc.realizations);
  for (const RunStats& s : runs) {
    report.mean_makespan += s.makespan / denom;
    report.deadline_miss_rate += s.miss_fraction / denom;
    report.mean_value_accrued += s.value / denom;
    report.mean_dropped += s.dropped / denom;
    report.mean_resolves += s.resolves / denom;
    report.mean_ga_iterations += s.ga_iterations / denom;
  }
  return report;
}

}  // namespace rts
