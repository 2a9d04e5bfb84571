#pragma once
// Realization engine: draws "real environment" executions of a schedule
// (paper Section 3.1: "we call it a realization of a schedule when the task
// graph is executed in the real resource environment according to the
// schedule"). The realized duration of task i on its assigned processor p is
// U(b_ip, (2*UL_ip - 1) * b_ip); transfer rates do not vary (Section 3.1).
//
// Every Monte-Carlo estimator draws realization i from `root.substream(i)`
// and writes its result at index i, so it can run its sweep through
// for_each_realization_block below and stay bit-identical for any thread
// count and block size.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#ifdef RTS_HAVE_OPENMP
#include <omp.h>
#endif

#include "sched/schedule.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "workload/problem.hpp"

namespace rts {

/// Precompiled per-task (BCET, UL) pairs on the assigned processors of one
/// schedule, ready to draw realization after realization.
class RealizationSampler {
 public:
  RealizationSampler(const ProblemInstance& instance, const Schedule& schedule);

  [[nodiscard]] std::size_t task_count() const noexcept { return bcet_.size(); }

  /// Fill `durations` (size n) with one realization drawn from `rng`.
  void sample(Rng& rng, std::span<double> durations) const;

  /// Same draw sequence, scattered into lane `lane` of a lane-major buffer
  /// (`durations[t * stride + lane]`, size n * stride) for the batched
  /// sweeps. Draw order per realization is identical to sample(), so a
  /// realization's durations do not depend on which lane it lands in.
  void sample_lane(Rng& rng, std::span<double> durations, std::size_t lane,
                   std::size_t stride) const;

  /// Fill `lanes` interleaved realizations at once: lane l draws from
  /// `root.substream(first_stream + l)` with exactly sample()'s draw
  /// sequence, into `durations[t * lanes + l]` (size >= n * lanes). For the
  /// lane widths the batched sweeps use (4/8/16/32) the per-lane
  /// xoshiro256** states are stepped in structure-of-arrays form, so the
  /// auto-vectorizer advances all lanes' RNGs in SIMD; every lane's draws
  /// are bit-identical to the scalar path by construction (same state
  /// expansion, same step, same uniform transform, per lane).
  void sample_lanes(const Rng& root, std::uint64_t first_stream,
                    std::span<double> durations, std::size_t lanes) const;

  /// Expected durations on the assigned processors (UL * BCET); the paper's
  /// schedulers plan with these, and M0 is the makespan they induce.
  [[nodiscard]] const std::vector<double>& expected_durations() const noexcept {
    return expected_;
  }

 private:
  std::vector<double> bcet_;
  std::vector<double> ul_;
  std::vector<double> expected_;
};

/// Fill the full n x m realized-duration matrix of `instance` from `rng`,
/// row-major in (task, processor) order — the draw the online policies
/// (dynamic EFT, hybrid re-dispatch, rescheduling) need, since they may run
/// a task on any processor. `realized` must already be n x m.
void sample_realized_matrix(const ProblemInstance& instance, Rng& rng,
                            Matrix<double>& realized);

/// The one realization sweep driver. Splits [0, count) into blocks of
/// `block` indices (the last one may be short) and calls
/// `body(scratch, begin, end)` once per block, statically spread over
/// `threads` OpenMP threads (0 = the runtime default; ignored without
/// OpenMP). Each thread builds its scratch once with `make_scratch()` and
/// reuses it for all its blocks, so the sweep allocates nothing per
/// realization. Bodies must write results only at their own indices; then
/// the output does not depend on the thread count or the block size.
template <class MakeScratch, class Body>
void for_each_realization_block(std::size_t count, std::size_t block,
                                std::size_t threads,
                                const MakeScratch& make_scratch,
                                const Body& body) {
  RTS_REQUIRE(block > 0, "realization block size must be positive");
  const auto total_blocks = static_cast<std::int64_t>((count + block - 1) / block);
#ifdef RTS_HAVE_OPENMP
  const int num_threads =
      threads > 0 ? static_cast<int>(threads) : omp_get_max_threads();
#pragma omp parallel num_threads(num_threads) default(none) \
    shared(count, block, total_blocks, make_scratch, body)
#else
  (void)threads;
#endif
  {
    auto scratch = make_scratch();
#ifdef RTS_HAVE_OPENMP
#pragma omp for schedule(static)
#endif
    for (std::int64_t b = 0; b < total_blocks; ++b) {
      const std::size_t begin = static_cast<std::size_t>(b) * block;
      body(scratch, begin, std::min(count, begin + block));
    }
  }
}

}  // namespace rts
