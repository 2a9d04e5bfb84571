#include "check/validator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/error.hpp"

namespace rts {

std::string_view to_string(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kCyclicGs: return "cyclic-gs";
    case ViolationKind::kPrecedence: return "precedence";
    case ViolationKind::kSequenceOverlap: return "sequence-overlap";
    case ViolationKind::kNotAsap: return "not-asap";
    case ViolationKind::kFinishMismatch: return "finish-mismatch";
    case ViolationKind::kStartMismatch: return "start-mismatch";
    case ViolationKind::kMakespanMismatch: return "makespan-mismatch";
    case ViolationKind::kNegativeSlack: return "negative-slack";
    case ViolationKind::kSlackMismatch: return "slack-mismatch";
    case ViolationKind::kEpsilonConstraint: return "epsilon-constraint";
    case ViolationKind::kEvaluationMismatch: return "evaluation-mismatch";
    case ViolationKind::kFreezeClosure: return "freeze-closure";
    case ViolationKind::kDropClosure: return "drop-closure";
    case ViolationKind::kPartialOrdering: return "partial-ordering";
    case ViolationKind::kBeforeDecision: return "before-decision";
  }
  return "unknown";
}

bool ValidationReport::has(ViolationKind kind) const noexcept {
  return std::any_of(violations.begin(), violations.end(),
                     [kind](const Violation& v) { return v.kind == kind; });
}

std::string ValidationReport::to_string() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  for (const Violation& v : violations) {
    os << rts::to_string(v.kind);
    if (v.task != kNoTask) os << " task=" << v.task;
    if (v.proc != kNoProc) os << " proc=" << v.proc;
    os << " expected=" << v.expected << " actual=" << v.actual;
    if (!v.detail.empty()) os << ": " << v.detail;
    os << '\n';
  }
  return os.str();
}

ScheduleValidator::ScheduleValidator(const TaskGraph& graph, const Platform& platform,
                                     double tolerance)
    : graph_(&graph), platform_(&platform), tol_(tolerance) {
  RTS_REQUIRE(tolerance >= 0.0, "validator tolerance must be non-negative");
}

bool ScheduleValidator::close(double a, double b) const noexcept {
  return std::abs(a - b) <= tol_ * std::max({1.0, std::abs(a), std::abs(b)});
}

IdVector<TaskId, std::vector<ScheduleValidator::GsEdge>>
ScheduleValidator::gs_predecessors(const Schedule& schedule) const {
  const std::size_t n = graph_->task_count();
  IdVector<TaskId, std::vector<GsEdge>> preds(n);
  for (const TaskId t : id_range<TaskId>(n)) {
    const ProcId pt = schedule.proc_of(t);
    for (const EdgeRef& e : graph_->predecessors(t)) {
      preds[t].push_back(
          GsEdge{e.task, platform_->comm_cost(e.data, schedule.proc_of(e.task), pt)});
    }
    const TaskId pp = schedule.proc_predecessor(t);
    if (pp != kNoTask && !graph_->has_edge(pp, t)) {
      preds[t].push_back(GsEdge{pp, 0.0});
    }
  }
  return preds;
}

ScheduleValidator::ReferenceTiming ScheduleValidator::reference_sweep(
    const IdVector<TaskId, std::vector<GsEdge>>& preds,
    IdSpan<TaskId, const double> durations) const {
  // Fixed-point relaxation: starts begin at 0 and only grow toward the ASAP
  // solution. A task at Gs-depth d stabilizes within d+1 passes, so an
  // acyclic Gs is stable after at most V passes; a cycle with positive total
  // weight keeps relaxing forever and is flagged by the extra pass. (A cycle
  // whose tasks all have zero duration converges anyway; that corner is
  // caught by the differential comparison, because TimingEvaluator's
  // Kahn-based construction rejects any cycle.)
  const std::size_t n = preds.size();
  ReferenceTiming out;
  out.start.assign(n, 0.0);
  out.finish.assign(n, 0.0);
  for (const TaskId t : id_range<TaskId>(n)) out.finish[t] = durations[t];

  for (std::size_t pass = 0; pass <= n; ++pass) {
    bool changed = false;
    for (const TaskId t : id_range<TaskId>(n)) {
      double ready = 0.0;
      for (const GsEdge& e : preds[t]) {
        ready = std::max(ready, out.finish[e.peer] + e.cost);
      }
      if (ready != out.start[t]) {
        out.start[t] = ready;
        out.finish[t] = ready + durations[t];
        changed = true;
        if (pass == n) {  // still relaxing after V passes: on/behind a cycle
          out.cyclic = true;
          out.cycle_task = t;
          return out;
        }
      }
    }
    if (!changed) break;
  }
  out.makespan = out.finish.empty()
                     ? 0.0
                     : *std::max_element(out.finish.begin(), out.finish.end());
  return out;
}

IdVector<TaskId, double> ScheduleValidator::reference_bottom_levels(
    const IdVector<TaskId, std::vector<GsEdge>>& preds,
    IdSpan<TaskId, const double> durations) const {
  const std::size_t n = preds.size();
  IdVector<TaskId, std::vector<GsEdge>> succs(n);
  for (const TaskId t : id_range<TaskId>(n)) {
    for (const GsEdge& e : preds[t]) {
      succs[e.peer].push_back(GsEdge{t, e.cost});
    }
  }
  IdVector<TaskId, double> bl;
  bl.assign(durations.begin(), durations.end());
  for (std::size_t pass = 0; pass < n; ++pass) {
    bool changed = false;
    for (const TaskId t : id_range<TaskId>(n)) {
      double tail = 0.0;
      for (const GsEdge& e : succs[t]) {
        tail = std::max(tail, e.cost + bl[e.peer]);
      }
      if (durations[t] + tail != bl[t]) {
        bl[t] = durations[t] + tail;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return bl;
}

void ScheduleValidator::check_rules(const Schedule& schedule,
                                    IdSpan<TaskId, const double> durations,
                                    IdSpan<TaskId, const double> start,
                                    IdSpan<TaskId, const double> finish,
                                    double makespan, ValidationReport& report) const {
  const std::size_t n = graph_->task_count();
  double max_finish = 0.0;
  for (const TaskId t : id_range<TaskId>(n)) {
    const ProcId pt = schedule.proc_of(t);
    const double slop = tol_ * std::max(1.0, makespan);

    if (!close(finish[t], start[t] + durations[t])) {
      report.violations.push_back(
          {ViolationKind::kFinishMismatch, t, pt, start[t] + durations[t], finish[t],
           "finish time is not start + duration"});
    }
    if (start[t] < -slop) {
      report.violations.push_back({ViolationKind::kPrecedence, t, pt, 0.0, start[t],
                                   "task starts before time 0"});
    }

    // Rule 3 (communication-cost timing) over graph edges, rule 2 (processor
    // exclusivity) over the sequence predecessor; their max is the ready time
    // that rule 4's ASAP semantics pins the start to exactly.
    double ready = 0.0;
    for (const EdgeRef& e : graph_->predecessors(t)) {
      const double arrival =
          finish[e.task] +
          platform_->comm_cost(e.data, schedule.proc_of(e.task), pt);
      if (start[t] < arrival - slop) {
        report.violations.push_back(
            {ViolationKind::kPrecedence, t, pt, arrival, start[t],
             "starts before data from predecessor task " +
                 std::to_string(e.task.value()) + " arrives"});
      }
      ready = std::max(ready, arrival);
    }
    const TaskId pp = schedule.proc_predecessor(t);
    if (pp != kNoTask) {
      const double prev_finish = finish[pp];
      if (start[t] < prev_finish - slop) {
        report.violations.push_back(
            {ViolationKind::kSequenceOverlap, t, pt, prev_finish, start[t],
             "overlaps sequence predecessor task " + std::to_string(pp.value())});
      }
      ready = std::max(ready, prev_finish);
    }
    if (start[t] > ready + slop) {
      report.violations.push_back(
          {ViolationKind::kNotAsap, t, pt, ready, start[t],
           "starts later than its ready time (Claim 3.2 requires ASAP starts)"});
    }
    max_finish = std::max(max_finish, finish[t]);
  }
  if (!close(makespan, max_finish)) {
    report.violations.push_back({ViolationKind::kMakespanMismatch, kNoTask, kNoProc,
                                 max_finish, makespan,
                                 "makespan is not the maximum finish time"});
  }
}

ValidationReport ScheduleValidator::validate(const Schedule& schedule,
                                             std::span<const double> durations) const {
  const std::size_t n = graph_->task_count();
  RTS_REQUIRE(schedule.task_count() == n, "schedule size does not match graph");
  RTS_REQUIRE(durations.size() == n, "duration vector length must equal task count");
  RTS_REQUIRE(schedule.proc_count() <= platform_->proc_count(),
              "schedule uses more processors than the platform provides");

  ValidationReport report;
  const auto preds = gs_predecessors(schedule);
  const ReferenceTiming ref = reference_sweep(preds, durations);
  if (ref.cyclic) {
    report.violations.push_back(
        {ViolationKind::kCyclicGs, ref.cycle_task, schedule.proc_of(ref.cycle_task),
         0.0, 0.0,
         "processor sequences contradict the precedence constraints (task is on or "
         "behind a Gs cycle)"});
    return report;
  }

  // The reference timing must satisfy the rules it was derived from — this
  // guards the validator against itself and produces per-rule diagnostics if
  // the fixed point is somehow inconsistent.
  check_rules(schedule, durations, ref.start, ref.finish, ref.makespan, report);

  // Def. 3.3: slack from independently recomputed bottom levels; must be
  // non-negative up to tolerance.
  const IdVector<TaskId, double> bl = reference_bottom_levels(preds, durations);
  IdVector<TaskId, double> ref_slack(n);
  for (const TaskId t : id_range<TaskId>(n)) {
    const double raw = ref.makespan - bl[t] - ref.start[t];
    if (raw < -tol_ * std::max(1.0, ref.makespan)) {
      report.violations.push_back({ViolationKind::kNegativeSlack, t,
                                   schedule.proc_of(t), 0.0, raw,
                                   "sigma_i = M - Bl(i) - Tl(i) is negative"});
    }
    ref_slack[t] = std::max(0.0, raw);
  }

  // Differential layer: the production timing engine must agree with the
  // naive reference to 1e-9 on every quantity.
  try {
    const TimingEvaluator evaluator(*graph_, *platform_, schedule);
    const ScheduleTiming full = evaluator.full_timing(durations);
    double slack_sum = 0.0;
    for (const TaskId t : id_range<TaskId>(n)) {
      if (!close(full.start[t], ref.start[t])) {
        report.violations.push_back(
            {ViolationKind::kStartMismatch, t, schedule.proc_of(t), ref.start[t],
             full.start[t], "TimingEvaluator start disagrees with the reference sweep"});
      }
      if (!close(full.slack[t], ref_slack[t])) {
        report.violations.push_back(
            {ViolationKind::kSlackMismatch, t, schedule.proc_of(t), ref_slack[t],
             full.slack[t], "TimingEvaluator slack disagrees with the reference sweep"});
      }
      slack_sum += ref_slack[t];
    }
    if (!close(full.makespan, ref.makespan)) {
      report.violations.push_back(
          {ViolationKind::kMakespanMismatch, kNoTask, kNoProc, ref.makespan,
           full.makespan, "full_timing makespan disagrees with the reference sweep"});
    }
    const double ref_avg = n == 0 ? 0.0 : slack_sum / static_cast<double>(n);
    if (!close(full.average_slack, ref_avg)) {
      report.violations.push_back(
          {ViolationKind::kSlackMismatch, kNoTask, kNoProc, ref_avg,
           full.average_slack,
           "full_timing average slack disagrees with the reference sweep"});
    }
    std::vector<double> scratch(n);
    const double ms = evaluator.makespan_into(durations, scratch);
    if (!close(ms, ref.makespan)) {
      report.violations.push_back(
          {ViolationKind::kMakespanMismatch, kNoTask, kNoProc, ref.makespan, ms,
           "makespan_into disagrees with the reference sweep"});
    }
  } catch (const InvalidArgument& e) {
    // The reference found no (positive-weight) cycle but the evaluator's
    // Kahn construction rejected the schedule: a zero-weight cycle or a
    // genuine disagreement between the implementations.
    report.violations.push_back(
        {ViolationKind::kCyclicGs, kNoTask, kNoProc, 0.0, 0.0,
         std::string("TimingEvaluator rejected the schedule: ") + e.what()});
  }
  return report;
}

ValidationReport ScheduleValidator::validate(const Schedule& schedule,
                                             const Matrix<double>& costs) const {
  return validate(schedule, assigned_durations(costs, schedule));
}

ScheduleValidator::ReferenceTiming ScheduleValidator::partial_reference_sweep(
    const IdVector<TaskId, std::vector<GsEdge>>& preds, const PartialSchedule& partial,
    IdSpan<TaskId, const double> durations) const {
  // Same monotone relaxation as reference_sweep, with two changes: frozen
  // tasks are pinned at their realized history (facts, not variables), and
  // every other start is floored at decision_time. Starts only grow from the
  // floor, so the acyclic-stabilization argument carries over unchanged.
  const std::size_t n = preds.size();
  ReferenceTiming out;
  out.start.assign(n, 0.0);
  out.finish.assign(n, 0.0);
  for (const TaskId t : id_range<TaskId>(n)) {
    if (partial.frozen[t] != 0) {
      out.start[t] = partial.frozen_start[t];
      out.finish[t] = partial.frozen_finish[t];
    } else {
      out.start[t] = partial.decision_time;
      out.finish[t] = partial.decision_time + durations[t];
    }
  }

  for (std::size_t pass = 0; pass <= n; ++pass) {
    bool changed = false;
    for (const TaskId t : id_range<TaskId>(n)) {
      if (partial.frozen[t] != 0) continue;
      double ready = partial.decision_time;
      for (const GsEdge& e : preds[t]) {
        ready = std::max(ready, out.finish[e.peer] + e.cost);
      }
      if (ready != out.start[t]) {
        out.start[t] = ready;
        out.finish[t] = ready + durations[t];
        changed = true;
        if (pass == n) {
          out.cyclic = true;
          out.cycle_task = t;
          return out;
        }
      }
    }
    if (!changed) break;
  }
  out.makespan = 0.0;
  for (const TaskId t : id_range<TaskId>(n)) {
    if (partial.dropped[t] == 0) out.makespan = std::max(out.makespan, out.finish[t]);
  }
  return out;
}

void ScheduleValidator::check_partial_structure(const PartialSchedule& partial,
                                                ValidationReport& report) const {
  const std::size_t n = graph_->task_count();
  const double slop = tol_ * std::max(1.0, partial.decision_time);
  for (const TaskId t : id_range<TaskId>(n)) {
    const ProcId pt = partial.schedule.proc_of(t);
    if (partial.frozen[t] != 0 && partial.dropped[t] != 0) {
      report.violations.push_back({ViolationKind::kFreezeClosure, t, pt, 0.0, 1.0,
                                   "task is both frozen and dropped"});
    }
    if (partial.frozen[t] != 0) {
      for (const EdgeRef& e : graph_->predecessors(t)) {
        if (partial.frozen[e.task] == 0) {
          report.violations.push_back(
              {ViolationKind::kFreezeClosure, t, pt, 1.0, 0.0,
               "frozen task has non-frozen predecessor task " +
                   std::to_string(e.task.value())});
        }
      }
      if (partial.frozen_start[t] > partial.decision_time + slop) {
        report.violations.push_back(
            {ViolationKind::kBeforeDecision, t, pt, partial.decision_time,
             partial.frozen_start[t], "frozen task started after the decision instant"});
      }
      if (partial.frozen_finish[t] < partial.frozen_start[t] - slop) {
        report.violations.push_back(
            {ViolationKind::kFinishMismatch, t, pt, partial.frozen_start[t],
             partial.frozen_finish[t], "frozen task finishes before it starts"});
      }
    }
    if (partial.dropped[t] != 0) {
      for (const EdgeRef& e : graph_->successors(t)) {
        if (partial.dropped[e.task] == 0) {
          report.violations.push_back(
              {ViolationKind::kDropClosure, t, pt, 1.0, 0.0,
               "dropped task has non-dropped successor task " +
                   std::to_string(e.task.value())});
        }
      }
    }
  }
  for (const ProcId p : id_range<ProcId>(partial.schedule.proc_count())) {
    int phase = 0;
    for (const TaskId t : partial.schedule.sequence(p)) {
      const int task_phase =
          partial.frozen[t] != 0 ? 0 : (partial.dropped[t] != 0 ? 2 : 1);
      if (task_phase < phase) {
        report.violations.push_back(
            {ViolationKind::kPartialOrdering, t, p, static_cast<double>(phase),
             static_cast<double>(task_phase),
             "sequence is not frozen..., remaining..., dropped..."});
      }
      phase = std::max(phase, task_phase);
    }
  }
}

void ScheduleValidator::check_partial_rules(const PartialSchedule& partial,
                                            IdSpan<TaskId, const double> durations,
                                            IdSpan<TaskId, const double> start,
                                            IdSpan<TaskId, const double> finish,
                                            double makespan,
                                            ValidationReport& report) const {
  const std::size_t n = graph_->task_count();
  const Schedule& schedule = partial.schedule;
  double max_finish = 0.0;
  for (const TaskId t : id_range<TaskId>(n)) {
    const TaskId tid = t;
    const ProcId pt = schedule.proc_of(tid);
    const double slop = tol_ * std::max(1.0, makespan);

    // Feasibility holds for everyone: data must have arrived and the
    // processor must be free, frozen history included.
    double ready = 0.0;
    for (const EdgeRef& e : graph_->predecessors(tid)) {
      const double arrival = finish[e.task] +
                             platform_->comm_cost(e.data, schedule.proc_of(e.task), pt);
      if (start[t] < arrival - slop) {
        report.violations.push_back(
            {ViolationKind::kPrecedence, tid, pt, arrival, start[t],
             "starts before data from predecessor task " +
                 std::to_string(e.task.value()) + " arrives"});
      }
      ready = std::max(ready, arrival);
    }
    const TaskId pp = schedule.proc_predecessor(tid);
    if (pp != kNoTask) {
      const double prev_finish = finish[pp];
      if (start[t] < prev_finish - slop) {
        report.violations.push_back(
            {ViolationKind::kSequenceOverlap, tid, pt, prev_finish, start[t],
             "overlaps sequence predecessor task " + std::to_string(pp.value())});
      }
      ready = std::max(ready, prev_finish);
    }

    if (partial.frozen[t] != 0) {
      // Frozen history is pinned, not recomputed: ASAP tightness arose under
      // the execution context of its time, so only pin equality is checked.
      if (!close(start[t], partial.frozen_start[t])) {
        report.violations.push_back(
            {ViolationKind::kStartMismatch, tid, pt, partial.frozen_start[t], start[t],
             "frozen task deviates from its realized start"});
      }
      if (!close(finish[t], partial.frozen_finish[t])) {
        report.violations.push_back(
            {ViolationKind::kFinishMismatch, tid, pt, partial.frozen_finish[t],
             finish[t], "frozen task deviates from its realized finish"});
      }
    } else {
      if (start[t] < partial.decision_time - slop) {
        report.violations.push_back(
            {ViolationKind::kBeforeDecision, tid, pt, partial.decision_time, start[t],
             "non-frozen task starts before the decision instant"});
      }
      if (!close(finish[t], start[t] + durations[t])) {
        report.violations.push_back(
            {ViolationKind::kFinishMismatch, tid, pt, start[t] + durations[t],
             finish[t], "finish time is not start + duration"});
      }
      ready = std::max(ready, partial.decision_time);
      if (start[t] > ready + slop) {
        report.violations.push_back(
            {ViolationKind::kNotAsap, tid, pt, ready, start[t],
             "starts later than max(ready time, decision instant)"});
      }
    }
    if (partial.dropped[t] == 0) max_finish = std::max(max_finish, finish[t]);
  }
  if (!close(makespan, max_finish)) {
    report.violations.push_back(
        {ViolationKind::kMakespanMismatch, kNoTask, kNoProc, max_finish, makespan,
         "makespan is not the maximum finish time over non-dropped tasks"});
  }
}

ValidationReport ScheduleValidator::validate_partial(
    const PartialSchedule& partial, std::span<const double> durations,
    const ScheduleTiming* claimed) const {
  const std::size_t n = graph_->task_count();
  RTS_REQUIRE(partial.schedule.task_count() == n, "schedule size does not match graph");
  RTS_REQUIRE(partial.frozen.size() == n && partial.dropped.size() == n &&
                  partial.frozen_start.size() == n && partial.frozen_finish.size() == n,
              "partial schedule vectors must cover every task");
  RTS_REQUIRE(durations.size() == n, "duration vector length must equal task count");
  RTS_REQUIRE(partial.schedule.proc_count() <= platform_->proc_count(),
              "schedule uses more processors than the platform provides");

  ValidationReport report;
  check_partial_structure(partial, report);
  if (!report.ok()) return report;  // timing is meaningless on broken structure

  const auto preds = gs_predecessors(partial.schedule);
  const ReferenceTiming ref = partial_reference_sweep(preds, partial, durations);
  if (ref.cyclic) {
    report.violations.push_back(
        {ViolationKind::kCyclicGs, ref.cycle_task,
         partial.schedule.proc_of(ref.cycle_task), 0.0, 0.0,
         "processor sequences contradict the precedence constraints (task is on or "
         "behind a Gs cycle)"});
    return report;
  }
  check_partial_rules(partial, durations, ref.start, ref.finish, ref.makespan, report);

  // Differential layer against the production floor-aware sweep.
  try {
    const ScheduleTiming prod = partial_timing(*graph_, *platform_, partial, durations);
    for (const TaskId t : id_range<TaskId>(n)) {
      const TaskId tid = t;
      if (!close(prod.start[t], ref.start[t])) {
        report.violations.push_back(
            {ViolationKind::kStartMismatch, tid, partial.schedule.proc_of(tid),
             ref.start[t], prod.start[t],
             "partial_timing start disagrees with the reference sweep"});
      }
      if (!close(prod.finish[t], ref.finish[t])) {
        report.violations.push_back(
            {ViolationKind::kFinishMismatch, tid, partial.schedule.proc_of(tid),
             ref.finish[t], prod.finish[t],
             "partial_timing finish disagrees with the reference sweep"});
      }
    }
    if (!close(prod.makespan, ref.makespan)) {
      report.violations.push_back(
          {ViolationKind::kMakespanMismatch, kNoTask, kNoProc, ref.makespan,
           prod.makespan, "partial_timing makespan disagrees with the reference sweep"});
    }
  } catch (const InvalidArgument& e) {
    report.violations.push_back(
        {ViolationKind::kCyclicGs, kNoTask, kNoProc, 0.0, 0.0,
         std::string("partial_timing rejected the schedule: ") + e.what()});
  }

  if (claimed != nullptr) {
    RTS_REQUIRE(claimed->start.size() == n && claimed->finish.size() == n,
                "claimed timing must carry start/finish for every task");
    check_partial_rules(partial, durations, claimed->start, claimed->finish,
                        claimed->makespan, report);
  }
  return report;
}

ValidationReport ScheduleValidator::validate_timing(const Schedule& schedule,
                                                    std::span<const double> durations,
                                                    const ScheduleTiming& claimed) const {
  const std::size_t n = graph_->task_count();
  RTS_REQUIRE(schedule.task_count() == n, "schedule size does not match graph");
  RTS_REQUIRE(durations.size() == n, "duration vector length must equal task count");
  RTS_REQUIRE(claimed.start.size() == n && claimed.finish.size() == n,
              "claimed timing must carry start/finish for every task");

  ValidationReport report;
  check_rules(schedule, durations, claimed.start, claimed.finish, claimed.makespan,
              report);

  if (!claimed.slack.empty()) {
    RTS_REQUIRE(claimed.slack.size() == n, "claimed slack must cover every task");
    const auto preds = gs_predecessors(schedule);
    const IdVector<TaskId, double> bl = reference_bottom_levels(preds, durations);
    double slack_sum = 0.0;
    for (const TaskId t : id_range<TaskId>(n)) {
      const double raw = claimed.makespan - bl[t] - claimed.start[t];
      const double expected = std::max(0.0, raw);
      if (!close(claimed.slack[t], expected)) {
        report.violations.push_back({ViolationKind::kSlackMismatch, t,
                                     schedule.proc_of(t), expected, claimed.slack[t],
                                     "claimed slack disagrees with M - Bl(i) - Tl(i)"});
      }
      slack_sum += expected;
    }
    const double expected_avg = n == 0 ? 0.0 : slack_sum / static_cast<double>(n);
    if (!close(claimed.average_slack, expected_avg)) {
      report.violations.push_back({ViolationKind::kSlackMismatch, kNoTask, kNoProc,
                                   expected_avg, claimed.average_slack,
                                   "claimed average slack disagrees with the mean"});
    }
  }
  return report;
}

ValidationReport ScheduleValidator::validate_solver_output(
    const Schedule& schedule, const Matrix<double>& costs, const Evaluation& eval,
    ObjectiveKind objective, std::optional<double> epsilon,
    double heft_makespan) const {
  ValidationReport report = validate(schedule, costs);
  if (report.has(ViolationKind::kCyclicGs)) return report;

  const ScheduleTiming timing =
      compute_schedule_timing(*graph_, *platform_, schedule, costs);
  if (!close(eval.makespan, timing.makespan)) {
    report.violations.push_back(
        {ViolationKind::kEvaluationMismatch, kNoTask, kNoProc, timing.makespan,
         eval.makespan, "Evaluation.makespan disagrees with recomputed timing"});
  }
  if (!close(eval.avg_slack, timing.average_slack)) {
    report.violations.push_back(
        {ViolationKind::kEvaluationMismatch, kNoTask, kNoProc, timing.average_slack,
         eval.avg_slack, "Evaluation.avg_slack disagrees with recomputed timing"});
  }

  if (epsilon.has_value()) {
    const double bound = *epsilon * heft_makespan;
    if (eval.makespan > bound + tol_ * std::max(1.0, bound)) {
      report.violations.push_back(
          {ViolationKind::kEpsilonConstraint, kNoTask, kNoProc, bound, eval.makespan,
           "M0 exceeds epsilon * M_HEFT (Eqn. 7)"});
    } else if (objective == ObjectiveKind::kEpsilonConstraint ||
               objective == ObjectiveKind::kEpsilonConstraintEffective) {
      // Eqn. 8, feasible branch: a feasible individual's fitness is exactly
      // its objective slack.
      const Evaluation evals[] = {eval};
      double fitness = 0.0;
      generation_fitness(evals, objective, *epsilon, heft_makespan,
                         std::span<double>(&fitness, 1));
      const double expected = objective == ObjectiveKind::kEpsilonConstraintEffective
                                  ? eval.effective_slack
                                  : eval.avg_slack;
      if (!close(fitness, expected)) {
        report.violations.push_back(
            {ViolationKind::kEvaluationMismatch, kNoTask, kNoProc, expected, fitness,
             "feasible-branch fitness disagrees with Eqn. 8"});
      }
    }
  }
  return report;
}

ValidationReport validate_schedule(const TaskGraph& graph, const Platform& platform,
                                   const Schedule& schedule,
                                   const Matrix<double>& costs) {
  return ScheduleValidator(graph, platform).validate(schedule, costs);
}

bool check_mode_enabled() {
  static const bool enabled = [] {
    const char* value = std::getenv("RTS_CHECK");
    return value != nullptr && *value != '\0' && std::string_view(value) != "0";
  }();
  return enabled;
}

}  // namespace rts
