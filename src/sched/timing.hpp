#pragma once
// Timing engine: evaluates a schedule under a vector of task durations.
//
// Implements the paper's semantics exactly:
//  * Claim 3.2 — with every task starting as soon as it is ready, the
//    makespan is the critical-path length of the disjunctive graph Gs;
//  * Definition 3.3 — top level Tl(i) (longest entry->i path, excluding i),
//    bottom level Bl(i) (longest i->exit path, including i) and slack
//    sigma_i = M - Bl(i) - Tl(i), all measured on Gs with the given
//    durations and communication costs.
//
// TimingEvaluator compiles Gs once per (graph, platform, schedule) into flat
// CSR adjacency with *precomputed* communication costs (processor placement
// is fixed, and the paper does not vary transfer rates), so re-evaluating
// thousands of Monte-Carlo duration realizations is a single O(V+E) sweep
// each with no allocation.
//
// For solver hot loops the *schedule* changes on every evaluation while the
// (graph, platform) pair stays fixed. A GA candidate differs from the fixed
// graph only in one processor predecessor per task, so
// chromosome_timing_into() compiles no Gs at all: it sweeps the graph's own
// predecessor CSR (task, data), compiled once per bind() on first use, plus
// one processor-predecessor slot per task, in the chromosome's execution
// order. When that processor predecessor is also a graph predecessor, Def.
// 3.1 keeps a single Gs edge; visiting it twice is harmless because the
// graph edge then costs exactly 0 (same processor), and max(x, f + 0.0) and
// max(b, 0.0 + bl) are idempotent, so the sweeps produce the same bits as
// the compiled Gs. Buffers are reused across calls, so a GA scoring millions
// of chromosomes performs no steady-state allocation (see ga/eval.hpp for
// the workspace that packages this pattern).

#include <span>
#include <vector>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/schedule.hpp"
#include "util/matrix.hpp"

namespace rts {

/// Full per-task timing of one evaluation.
struct ScheduleTiming {
  IdVector<TaskId, double> start;         ///< ASAP start time == top level Tl(i)
  IdVector<TaskId, double> finish;        ///< start + duration
  IdVector<TaskId, double> bottom_level;  ///< Bl(i), includes i's duration
  IdVector<TaskId, double> slack;         ///< sigma_i = makespan - Bl(i) - Tl(i)
  double makespan = 0.0;                  ///< critical-path length of Gs
  double average_slack = 0.0;             ///< sigma bar (Eqn. 3)
};

/// Reusable evaluator for one (graph, platform) pair; compiles the
/// disjunctive graph Gs of one schedule at a time.
class TimingEvaluator {
 public:
  /// Unbound evaluator; bind() before use. Exists so workspaces
  /// can hold evaluators by value and rebind them without losing capacity.
  TimingEvaluator() = default;

  /// Bound but not yet compiled; call rebuild() before evaluating.
  TimingEvaluator(const TaskGraph& graph, const Platform& platform);

  /// Compiles the disjunctive graph. Throws InvalidArgument when the
  /// schedule contradicts the graph's precedence constraints (cyclic Gs).
  TimingEvaluator(const TaskGraph& graph, const Platform& platform,
                  const Schedule& schedule);

  /// Point at a (possibly different) graph/platform pair, keeping every
  /// internal buffer's capacity. Invalidates the current compile and the
  /// graph CSR of chromosome_timing_into(); rebuild() before evaluating a
  /// schedule. The graph must not change while bound.
  void bind(const TaskGraph& graph, const Platform& platform);

  /// Recompile Gs for a new schedule in place — no allocation once the
  /// buffers have grown to the graph's size. Throws InvalidArgument when the
  /// schedule contradicts precedence (cyclic Gs).
  void rebuild(const Schedule& schedule);

  /// Full timing of a global execution order plus a per-task processor
  /// assignment (the GA chromosome encoding) under durations
  /// costs(t, assignment[t]), without compiling Gs: each processor's
  /// sequence is its tasks in `order` order. One pass in `order` validates
  /// and runs the forward sweep, one reverse pass the backward sweep; both
  /// walk the graph CSR plus one processor-predecessor slot. Bit-identical
  /// to rebuild() of the decoded schedule followed by full_timing_into().
  /// Throws InvalidArgument on a malformed order or assignment (checked
  /// before any cost is read) or an order that contradicts precedence.
  /// Leaves the compiled schedule, if any, untouched.
  void chromosome_timing_into(std::span<const TaskId> order,
                              std::span<const ProcId> assignment,
                              const Matrix<double>& costs, ScheduleTiming& out);

  [[nodiscard]] std::size_t task_count() const noexcept { return n_; }

  /// True once rebuild() has compiled a schedule for the current binding.
  [[nodiscard]] bool compiled() const noexcept { return compiled_; }

  /// Makespan only (fast path for Monte-Carlo realizations).
  /// `durations[i]` is the duration of task i on its assigned processor.
  [[nodiscard]] double makespan(IdSpan<TaskId, const double> durations) const;

  /// Same, writing finish times into caller-provided scratch (size n) to
  /// avoid allocation inside parallel loops.
  double makespan_into(IdSpan<TaskId, const double> durations,
                       IdSpan<TaskId, double> scratch_finish) const;

  /// Full timing: start/finish, bottom levels, per-task slack, average slack.
  [[nodiscard]] ScheduleTiming full_timing(IdSpan<TaskId, const double> durations) const;

  /// Same, writing into caller-owned buffers (resized as needed, capacity
  /// kept) so repeated full evaluations perform no steady-state allocation.
  void full_timing_into(IdSpan<TaskId, const double> durations, ScheduleTiming& out) const;

  /// Topological order of the disjunctive graph used by the sweeps.
  [[nodiscard]] std::span<const TaskId> gs_topological_order() const noexcept {
    return topo_;
  }

  /// Read-only views of the compiled predecessor CSR of Gs: offsets are
  /// indexed by task id (not topo slot) and 64-bit — edge counts are the
  /// first quantities to overflow 32 bits at million-task scale — and costs
  /// are the precompiled edge costs the scalar sweeps use. Valid until the
  /// next bind()/rebuild(schedule). sim/batched_sweep re-compiles these into
  /// lane-blocked SoA form; taking them verbatim is what makes the batched
  /// sweeps bit-identical.
  [[nodiscard]] IdSpan<TaskId, const EdgeId> gs_pred_offsets() const noexcept {
    return pred_off_;
  }
  [[nodiscard]] IdSpan<EdgeId, const TaskId> gs_pred_tasks() const noexcept {
    return pred_task_;
  }
  [[nodiscard]] IdSpan<EdgeId, const double> gs_pred_costs() const noexcept {
    return pred_cost_;
  }

 private:
  /// Compile Gs for an arbitrary placement: predecessor CSR with edge
  /// costs, then Kahn's topological sort. proc_of/proc_pred describe the
  /// processor placement and per-processor predecessor of every task.
  void compile(IdSpan<TaskId, const ProcId> proc_of,
               IdSpan<TaskId, const TaskId> proc_pred);

  /// Graph-only predecessor CSR of chromosome_timing_into().
  void compile_graph_csr();

  const TaskGraph* graph_ = nullptr;
  const Platform* platform_ = nullptr;
  std::size_t n_ = 0;
  bool compiled_ = false;
  std::vector<TaskId> topo_;  // topological order of Gs (positional)
  // CSR predecessor adjacency of Gs with precomputed edge costs. Offsets are
  // EdgeId (64-bit): task t's predecessors live in slots
  // pred_off_[t] .. pred_off_[t.next()].
  IdVector<TaskId, EdgeId> pred_off_;  // n_ + 1 entries
  IdVector<EdgeId, TaskId> pred_task_;
  IdVector<EdgeId, double> pred_cost_;
  // Successor-id mirror, used only by Kahn's sort in compile().
  IdVector<TaskId, EdgeId> succ_off_;  // n_ + 1 entries
  IdVector<EdgeId, TaskId> succ_task_;
  // Compile scratch, reused across rebuilds.
  IdVector<TaskId, std::int64_t> indeg_;
  IdVector<TaskId, EdgeId> fill_;
  std::vector<TaskId> stack_;
  IdVector<TaskId, TaskId> proc_pred_scratch_;
  // Chromosome path: the graph's own predecessor CSR (no processor edges),
  // compiled on the first chromosome after bind(), and per-call scratch —
  // edge costs of the forward sweep (reused by the backward sweep),
  // durations, the inverse permutation of `order` (n_ marks unseen) and the
  // running last task of every processor.
  bool graph_csr_ready_ = false;
  IdVector<TaskId, EdgeId> graph_pred_off_;  // n_ + 1 entries
  IdVector<EdgeId, TaskId> graph_pred_task_;
  IdVector<EdgeId, double> graph_pred_data_;
  IdVector<EdgeId, double> edge_cost_;
  IdVector<TaskId, double> durations_;
  IdVector<TaskId, std::size_t> pos_;
  IdVector<ProcId, TaskId> last_on_proc_;
};

/// Extract per-task durations on assigned processors from an n x m cost
/// matrix (`costs(i, p)` = duration of task i on processor p).
std::vector<double> assigned_durations(const Matrix<double>& costs, const Schedule& schedule);

/// One-shot convenience: compile + evaluate with `costs` expected durations.
ScheduleTiming compute_schedule_timing(const TaskGraph& graph, const Platform& platform,
                                       const Schedule& schedule,
                                       const Matrix<double>& costs);

/// One-shot makespan under `costs`.
double compute_makespan(const TaskGraph& graph, const Platform& platform,
                        const Schedule& schedule, const Matrix<double>& costs);

}  // namespace rts
