#pragma once
// Streaming and batch statistics used by the Monte-Carlo robustness
// evaluator, the GA convergence traces and the experiment harness.

#include <cstddef>
#include <span>
#include <vector>

namespace rts {

/// Numerically stable streaming accumulator (Welford) for mean / variance /
/// extrema. Mergeable so OpenMP threads can accumulate privately and combine.
class RunningStats {
 public:
  /// Add one observation.
  void add(double x) noexcept;

  /// Merge another accumulator into this one (Chan et al. parallel update).
  void merge(const RunningStats& other) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept;
  /// Sample variance (n-1 denominator); 0 when fewer than two observations.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double sum() const noexcept { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Sample standard deviation (n-1); 0 for fewer than two elements.
double stddev(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile, p in [0,100]: percentiles() on a copy.
double percentile(std::span<const double> xs, double p);

/// Linear-interpolated percentiles of `xs`: out[k] is the percentile at
/// ps[k], for ps ascending in [0,100]. With v the ascending order of xs,
/// pos = p/100·(N−1), lo = ⌊pos⌋ and frac = pos − lo, the value is
/// v[lo]·(1−frac) + v[lo+1]·frac, with v[lo+1] read as v[lo] when lo = N−1.
///
/// Selects instead of sorting, in expected O(N) time for a handful of
/// quantiles: std::nth_element puts v[lo] in place, searching only above
/// the previous quantile's index, and v[lo+1] is the minimum of the part
/// above it. Those are the same order statistics a full sort yields, fed
/// to the same expression, so the result is bit-identical to interpolating
/// over sorted data (ties that differ only in bits, ±0, may swap).
/// Reorders `xs` in place; callers that need the input order copy first.
void percentiles(std::span<double> xs, std::span<const double> ps,
                 std::span<double> out);

/// Pearson correlation coefficient; 0 when either series is constant.
double pearson_correlation(std::span<const double> xs, std::span<const double> ys);

/// Spearman rank correlation (average ranks for ties).
double spearman_correlation(std::span<const double> xs, std::span<const double> ys);

/// Geometric mean of strictly positive values; 0 for an empty span.
double geometric_mean(std::span<const double> xs);

/// Half-width of the normal-approximation 95% confidence interval of the mean.
double ci95_halfwidth(const RunningStats& s) noexcept;

/// Fractional ranks (1-based, ties averaged) of `xs`.
std::vector<double> fractional_ranks(std::span<const double> xs);

}  // namespace rts
