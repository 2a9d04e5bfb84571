#pragma once
// GA variation operators (paper Sections 4.2.5 and 4.2.6).
//
// Crossover — single point. Scheduling strings: a random cut position splits
// both parents; each offspring keeps its parent's left part and reorders the
// right-part tasks by their relative positions in the *other* parent's
// scheduling string (this provably yields a valid topological sort).
// Assignments: the per-task processor strings exchange their tails at a
// second random cut over task ids.
//
// Mutation — pick a task v, move it to a uniformly random position within
// its precedence window (strictly after the last scheduled immediate
// predecessor, strictly before the first scheduled immediate successor),
// then assign v a uniformly random processor.

#include <cstdint>
#include <utility>

#include "ga/chromosome.hpp"

namespace rts {

/// Single-point crossover of two parents into caller-owned offspring, which
/// must not alias the parents. The offspring's buffers and `mask` (scratch,
/// resized to the task count) keep their capacity across calls, so a
/// steady-state crossover allocates nothing.
void crossover(const Chromosome& parent_a, const Chromosome& parent_b, Rng& rng,
               Chromosome& child_a, Chromosome& child_b,
               IdVector<TaskId, std::uint8_t>& mask);

/// In-place precedence-window move mutation + random processor reassignment.
/// `positions` is the caller's reused scratch for mutation_window().
void mutate(Chromosome& chromosome, const TaskGraph& graph, std::size_t proc_count,
            Rng& rng, IdVector<TaskId, std::size_t>& positions);

/// The inclusive insertion-index window [lo, hi] into which task `v` (already
/// erased from `order`) may be re-inserted without violating precedence.
/// `order_without_v` has length n-1; `positions` is scratch (resized to the
/// task count, capacity kept).
std::pair<std::size_t, std::size_t> mutation_window(const TaskGraph& graph,
                                                    std::span<const TaskId> order_without_v,
                                                    TaskId v,
                                                    IdVector<TaskId, std::size_t>& positions);

}  // namespace rts
