#pragma once
// Batched (lane-blocked) Monte-Carlo sweeps over a compiled disjunctive
// graph Gs.
//
// The scalar Monte-Carlo hot path evaluates one realization per pass over
// the compiled Gs: a pointer-chasing walk whose per-edge work is a single
// max/+ — the traversal overhead (topo indirection, offset loads, loop
// control) dominates the arithmetic. These kernels restructure the compiled
// graph into structure-of-arrays form — one contiguous edge array in
// topological order, predecessor slots and costs in flat parallel arrays,
// no per-node indirection on the hot path — and sweep N realization *lanes*
// per pass over the edges: the inner loop over lanes reads/writes
// contiguous rows (`value_of(task t, lane l) = buf[t * lanes + l]`), so the
// compiler auto-vectorizes it and the edge metadata is fetched once per
// edge instead of once per (edge, realization).
//
// Determinism contract (checked against the scalar sweep kept as the
// differential-testing oracle in tests/sim/scalar_oracle.hpp): lanes
// never interact — lane l combines exactly the operands the scalar sweep
// combines for realization l, in the same order (edges in CSR order, nodes
// in topo order, the same max/+ reduction tree). Results are therefore
// bit-identical to the scalar sweep for every lane width, block size and
// thread count. src/CMakeLists.txt pins -ffp-contract=off across the
// library so no build flavor can fuse a*b+c differently and break the
// bitwise guarantee.
//
// Two kernels:
//   * BatchedGsSweep      — complete static schedules, compiled from a
//                           TimingEvaluator's Gs (forward sweep for
//                           makespans/finish times, forward+backward for
//                           per-task slack — the criticality input);
//   * BatchedPartialSweep — interrupted executions (sched/partial_schedule):
//                           frozen history pinned, live tasks floored at the
//                           decision instant, mirroring partial_timing()
//                           bit for bit. Feeds the drop-policy
//                           completion-probability estimator.

#include <cstdint>
#include <span>
#include <vector>

#include "sched/partial_schedule.hpp"
#include "sched/timing.hpp"

namespace rts {

/// Structure-of-arrays compile of one TimingEvaluator's Gs, ready to sweep
/// many realization lanes per pass. Snapshots the evaluator's compiled
/// state; rebuild()ing the evaluator afterwards does not affect this kernel.
class BatchedGsSweep {
 public:
  /// Compile from an evaluator holding a compiled schedule. Edge order and
  /// topological order are taken verbatim from the evaluator, so lane
  /// results match its scalar sweeps bit for bit.
  explicit BatchedGsSweep(const TimingEvaluator& evaluator);

  [[nodiscard]] std::size_t task_count() const noexcept { return n_; }

  /// Forward sweep of `lanes` realizations in one pass over the edges.
  ///
  /// Lane-major layout throughout: entry (task t, lane l) lives at
  /// `buf[t * lanes + l]`. `durations` holds the realized duration of every
  /// task per lane; on return `finish[t * lanes + l]` is task t's finish
  /// time in lane l and `makespans[l]` the lane's makespan. Buffers must
  /// hold n * lanes (finish, durations) and lanes (makespans) values.
  void forward(std::span<const double> durations, std::size_t lanes,
               std::span<double> finish, std::span<double> makespans) const;

  /// Forward + backward sweep: additionally computes per-task slack
  /// (Definition 3.3, sigma = M - Bl - Tl) per lane — the criticality
  /// analysis input. `start` and `bottom` are scratch of n * lanes values;
  /// `slack` receives the per-(task, lane) slack.
  void forward_backward(std::span<const double> durations, std::size_t lanes,
                        std::span<double> start, std::span<double> finish,
                        std::span<double> bottom, std::span<double> slack,
                        std::span<double> makespans) const;

 private:
  std::size_t n_ = 0;
  // Edges of Gs in topological order of their target node: node_off_[s] ..
  // node_off_[s+1] are the predecessor edges of the task in topo slot s.
  // Offsets are 64-bit (EdgeId domain): edge totals pass 2^31 long before
  // task counts do at the ROADMAP's million-task scale.
  std::vector<std::int64_t> node_off_;
  std::vector<std::uint32_t> edge_pred_;  ///< predecessor task id per edge
  std::vector<double> edge_cost_;         ///< precompiled comm cost per edge
  std::vector<std::uint32_t> topo_;       ///< task id per topo slot
};

/// Structure-of-arrays compile of a partial schedule's timing recurrence
/// (partial_timing in sched/partial_schedule.hpp): frozen tasks are pinned
/// at their realized history, live tasks start no earlier than the decision
/// instant, dropped placeholders run with whatever (zero) durations the
/// caller supplies. Edge enumeration order matches partial_timing — graph
/// predecessors first, then the processor predecessor — so lane finishes
/// are bit-identical to the scalar recurrence.
class BatchedPartialSweep {
 public:
  BatchedPartialSweep(const TaskGraph& graph, const Platform& platform,
                      const PartialSchedule& partial);

  [[nodiscard]] std::size_t task_count() const noexcept { return n_; }

  /// Forward sweep of `lanes` realizations; `finish[t * lanes + l]` receives
  /// task t's finish in lane l (frozen tasks: their pinned history in every
  /// lane). Durations of frozen tasks are ignored.
  void forward(std::span<const double> durations, std::size_t lanes,
               std::span<double> finish) const;

 private:
  std::size_t n_ = 0;
  double floor_ = 0.0;  ///< max(decision_time, 0): earliest live start
  std::vector<std::int64_t> node_off_;  ///< 64-bit edge offsets (EdgeId domain)
  std::vector<std::uint32_t> edge_pred_;
  std::vector<double> edge_cost_;
  std::vector<std::uint32_t> topo_;
  std::vector<std::uint8_t> pinned_;      ///< per topo slot: frozen task?
  std::vector<double> pinned_finish_;     ///< per topo slot (0 when live)
};

}  // namespace rts
