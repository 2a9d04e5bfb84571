#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace rts {

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  n_ += other.n_;
}

double RunningStats::mean() const noexcept { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const noexcept {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::min() const noexcept { return n_ == 0 ? 0.0 : min_; }

double RunningStats::max() const noexcept { return n_ == 0 ? 0.0 : max_; }

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double percentile(std::span<const double> xs, double p) {
  std::vector<double> copy(xs.begin(), xs.end());
  double out = 0.0;
  percentiles(copy, std::span<const double>(&p, 1), std::span<double>(&out, 1));
  return out;
}

void percentiles(std::span<double> xs, std::span<const double> ps,
                 std::span<double> out) {
  RTS_REQUIRE(!xs.empty(), "percentile of empty data");
  RTS_REQUIRE(out.size() == ps.size(), "one output per percentile");
  for (std::size_t k = 0; k < ps.size(); ++k) {
    RTS_REQUIRE(ps[k] >= 0.0 && ps[k] <= 100.0, "percentile must be in [0,100]");
    RTS_REQUIRE(k == 0 || ps[k - 1] <= ps[k], "percentiles must be ascending");
  }
  if (xs.size() == 1) {
    std::fill(out.begin(), out.end(), xs.front());
    return;
  }
  const std::size_t last = xs.size() - 1;
  std::size_t from = 0;  // everything below the previous lo is <= v[lo]
  for (std::size_t k = 0; k < ps.size(); ++k) {
    const double pos = ps[k] / 100.0 * static_cast<double>(last);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    const auto nth = xs.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(xs.begin() + static_cast<std::ptrdiff_t>(from), nth, xs.end());
    const double v_lo = *nth;
    const double v_hi = lo < last ? *std::min_element(nth + 1, xs.end()) : v_lo;
    out[k] = v_lo * (1.0 - frac) + v_hi * frac;
    from = lo;
  }
}

double pearson_correlation(std::span<const double> xs, std::span<const double> ys) {
  RTS_REQUIRE(xs.size() == ys.size(), "correlation series length mismatch");
  if (xs.size() < 2) return 0.0;
  const double mx = mean(xs);
  const double my = mean(ys);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  // rts-analyze: allow(no-float-eq) — degenerate variance sentinel.
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

std::vector<double> fractional_ranks(std::span<const double> xs) {
  std::vector<std::size_t> order(xs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return xs[a] < xs[b]; });
  std::vector<double> ranks(xs.size(), 0.0);
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && xs[order[j + 1]] == xs[order[i]]) ++j;
    // Average rank over the tie group [i, j]; ranks are 1-based.
    const double avg = (static_cast<double>(i) + static_cast<double>(j)) / 2.0 + 1.0;
    for (std::size_t k = i; k <= j; ++k) ranks[order[k]] = avg;
    i = j + 1;
  }
  return ranks;
}

double spearman_correlation(std::span<const double> xs, std::span<const double> ys) {
  RTS_REQUIRE(xs.size() == ys.size(), "correlation series length mismatch");
  if (xs.size() < 2) return 0.0;
  const auto rx = fractional_ranks(xs);
  const auto ry = fractional_ranks(ys);
  return pearson_correlation(rx, ry);
}

double geometric_mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    RTS_REQUIRE(x > 0.0, "geometric mean requires positive values");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double ci95_halfwidth(const RunningStats& s) noexcept {
  if (s.count() < 2) return 0.0;
  return 1.959963984540054 * s.stddev() / std::sqrt(static_cast<double>(s.count()));
}

}  // namespace rts
