#pragma once
// Schedule representation (paper Section 3.1): a vector s = {s_1..s_m} where
// s_p is the ordered task sequence of processor p. We additionally cache the
// inverse mapping task -> processor.

#include <span>
#include <vector>

#include "graph/task_graph.hpp"
#include "platform/platform.hpp"

namespace rts {

/// Assignment + per-processor execution order for every task of a graph.
///
/// Invariants (checked at construction): each of the `task_count` tasks
/// appears exactly once across all sequences; sequence entries are valid ids.
/// Consistency with a *specific* task graph's precedence constraints is
/// validated by the disjunctive-graph builder / timing engine, which throw
/// when the sequences contradict precedence.
class Schedule {
 public:
  /// Wrap explicit per-processor sequences. `task_count` is the graph size.
  Schedule(std::size_t task_count, std::vector<std::vector<TaskId>> sequences);

  /// Build from a global execution order (the GA's "scheduling string") and a
  /// per-task processor assignment: each processor's sequence is its tasks in
  /// scheduling-string order (the paper's chromosome decoding).
  static Schedule from_order_and_assignment(std::span<const TaskId> order,
                                            std::span<const ProcId> assignment,
                                            std::size_t proc_count);

  [[nodiscard]] std::size_t task_count() const noexcept { return proc_of_.size(); }
  [[nodiscard]] std::size_t proc_count() const noexcept { return sequences_.size(); }

  /// All sequences, indexable by processor id.
  [[nodiscard]] std::span<const std::vector<TaskId>> sequences() const noexcept {
    return sequences_;
  }

  /// Execution sequence of one processor.
  [[nodiscard]] std::span<const TaskId> sequence(ProcId p) const;

  /// Processor a task is assigned to.
  [[nodiscard]] ProcId proc_of(TaskId t) const;

  /// Task executed immediately before `t` on its processor (kNoTask if first).
  [[nodiscard]] TaskId proc_predecessor(TaskId t) const;

  /// Task executed immediately after `t` on its processor (kNoTask if last).
  [[nodiscard]] TaskId proc_successor(TaskId t) const;

  /// Full task -> processor map.
  [[nodiscard]] std::span<const ProcId> assignment() const noexcept { return proc_of_; }

  bool operator==(const Schedule&) const = default;

 private:
  IdVector<ProcId, std::vector<TaskId>> sequences_;
  IdVector<TaskId, ProcId> proc_of_;
  IdVector<TaskId, TaskId> proc_pred_;
  IdVector<TaskId, TaskId> proc_succ_;
};

/// Incremental assembler of per-processor sequences — the supported way to
/// construct a Schedule from dispatch-style code outside src/sched and
/// src/resched (enforced by rts_analyze's no-raw-schedule rule). Append tasks
/// in execution order per processor, then build() validates the placement
/// invariants exactly like the Schedule constructor.
class ScheduleBuilder {
 public:
  ScheduleBuilder(std::size_t task_count, std::size_t proc_count);

  /// Append `task` at the tail of processor `proc`'s sequence.
  void append(ProcId proc, TaskId task);

  [[nodiscard]] std::size_t task_count() const noexcept { return task_count_; }
  [[nodiscard]] std::size_t proc_count() const noexcept { return sequences_.size(); }

  /// Finalize; throws InvalidArgument unless every task was appended exactly
  /// once. The builder is consumed (sequences are moved out).
  [[nodiscard]] Schedule build() &&;

 private:
  std::size_t task_count_;
  IdVector<ProcId, std::vector<TaskId>> sequences_;
};

}  // namespace rts
