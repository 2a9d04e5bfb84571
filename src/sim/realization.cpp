#include "sim/realization.hpp"

#include <cstdint>

#include "util/error.hpp"
#include "workload/uncertainty.hpp"

namespace rts {

namespace {

inline std::uint64_t rotl_u64(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

// Draw one realization per lane with W substreams stepped in lockstep.
// Structure-of-arrays states: the l-loops are over independent lanes, so
// the auto-vectorizer runs the xoshiro256** update and the uniform
// transform on all W lanes per instruction. Each lane reproduces, bit for
// bit, Rng(hash_combine_u64(root_seed, stream)) followed by sample()'s
// draw sequence: splitmix64 state expansion in word order, one
// next_double() per task in task order, and sample_uniform's exact
// `lo + (hi - lo) * u` operand order.
template <std::size_t W>
void sample_lanes_w(const double* bcet, const double* ul, std::size_t n,
                    std::uint64_t root_seed, std::uint64_t first_stream,
                    double* out) {
  std::uint64_t s0[W];
  std::uint64_t s1[W];
  std::uint64_t s2[W];
  std::uint64_t s3[W];
  for (std::size_t l = 0; l < W; ++l) {
    std::uint64_t sm = hash_combine_u64(root_seed, first_stream + l);
    s0[l] = splitmix64(sm);
    s1[l] = splitmix64(sm);
    s2[l] = splitmix64(sm);
    s3[l] = splitmix64(sm);
  }
  for (std::size_t t = 0; t < n; ++t) {
    const double lo = bcet[t];
    const double hi = (2.0 * ul[t] - 1.0) * bcet[t];
    const double d = hi - lo;
    double* row = out + t * W;
    for (std::size_t l = 0; l < W; ++l) {
      const std::uint64_t x = rotl_u64(s1[l] * 5, 7) * 9;
      const std::uint64_t tmp = s1[l] << 17;
      s2[l] ^= s0[l];
      s3[l] ^= s1[l];
      s1[l] ^= s2[l];
      s0[l] ^= s3[l];
      s2[l] ^= tmp;
      s3[l] = rotl_u64(s3[l], 45);
      const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
      row[l] = lo + d * u;
    }
  }
}

}  // namespace

RealizationSampler::RealizationSampler(const ProblemInstance& instance,
                                       const Schedule& schedule) {
  const std::size_t n = instance.task_count();
  RTS_REQUIRE(schedule.task_count() == n, "schedule size does not match instance");
  bcet_.resize(n);
  ul_.resize(n);
  expected_.resize(n);
  for (const TaskId t : id_range<TaskId>(n)) {
    const ProcId p = schedule.proc_of(t);
    RTS_REQUIRE(p.index() < instance.proc_count(),
                "schedule assigns a processor outside the instance platform");
    bcet_[t.index()] = instance.bcet(t.index(), p.index());
    ul_[t.index()] = instance.ul(t.index(), p.index());
    expected_[t.index()] = instance.expected(t.index(), p.index());
  }
}

void sample_realized_matrix(const ProblemInstance& instance, Rng& rng,
                            Matrix<double>& realized) {
  const std::size_t n = instance.task_count();
  const std::size_t m = instance.proc_count();
  RTS_REQUIRE(realized.rows() == n && realized.cols() == m,
              "realized matrix has wrong shape");
  for (std::size_t t = 0; t < n; ++t) {
    for (std::size_t p = 0; p < m; ++p) {
      realized(t, p) =
          sample_realized_duration(rng, instance.bcet(t, p), instance.ul(t, p));
    }
  }
}

void RealizationSampler::sample(Rng& rng, std::span<double> durations) const {
  RTS_REQUIRE(durations.size() == bcet_.size(), "duration buffer has wrong size");
  for (std::size_t t = 0; t < bcet_.size(); ++t) {
    durations[t] = sample_realized_duration(rng, bcet_[t], ul_[t]);
  }
}

void RealizationSampler::sample_lane(Rng& rng, std::span<double> durations,
                                     std::size_t lane, std::size_t stride) const {
  RTS_REQUIRE(lane < stride, "lane index outside the stride");
  RTS_REQUIRE(durations.size() >= bcet_.size() * stride,
              "duration buffer has wrong size");
  for (std::size_t t = 0; t < bcet_.size(); ++t) {
    durations[t * stride + lane] = sample_realized_duration(rng, bcet_[t], ul_[t]);
  }
}

void RealizationSampler::sample_lanes(const Rng& root, std::uint64_t first_stream,
                                      std::span<double> durations,
                                      std::size_t lanes) const {
  const std::size_t n = bcet_.size();
  RTS_REQUIRE(lanes > 0, "lane count must be positive");
  RTS_REQUIRE(durations.size() >= n * lanes, "duration buffer too small");
  // sample_realized_duration's preconditions, checked once per call instead
  // of once per draw.
  for (std::size_t t = 0; t < n; ++t) {
    RTS_REQUIRE(bcet_[t] > 0.0, "best-case execution time must be positive");
    RTS_REQUIRE(ul_[t] >= 1.0, "uncertainty level must be >= 1");
  }
  const std::uint64_t seed = root.seed();
  double* out = durations.data();
  switch (lanes) {
    case 4: sample_lanes_w<4>(bcet_.data(), ul_.data(), n, seed, first_stream, out); return;
    case 8: sample_lanes_w<8>(bcet_.data(), ul_.data(), n, seed, first_stream, out); return;
    case 16: sample_lanes_w<16>(bcet_.data(), ul_.data(), n, seed, first_stream, out); return;
    case 32: sample_lanes_w<32>(bcet_.data(), ul_.data(), n, seed, first_stream, out); return;
    default:
      // Tail groups and unusual widths: the scalar per-lane path (same
      // substreams, same draw order — bit-identical, just unbatched).
      for (std::size_t l = 0; l < lanes; ++l) {
        Rng rng = root.substream(first_stream + l);
        sample_lane(rng, durations, l, lanes);
      }
      return;
  }
}

}  // namespace rts
