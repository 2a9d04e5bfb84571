#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace rts {
namespace {

TEST(RunningStats, EmptyIsAllZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  RunningStats s;
  for (const double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(s.stddev(), stddev(xs), 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 31.0, 1e-12);
}

TEST(RunningStats, SingleObservationHasZeroVariance) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 5.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  Rng rng(1);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double() * 10.0;
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-8);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_NEAR(empty.mean(), 1.5, 1e-12);
}

TEST(Percentile, KnownQuantiles) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_EQ(percentile(xs, 50.0), 3.0);
  EXPECT_NEAR(percentile(xs, 25.0), 2.0, 1e-12);
  EXPECT_NEAR(percentile(xs, 10.0), 1.4, 1e-12);  // linear interpolation
}

TEST(Percentile, RejectsEmptyAndOutOfRange) {
  const std::vector<double> xs{1.0};
  EXPECT_THROW(percentile({}, 50.0), InvalidArgument);
  EXPECT_THROW(percentile(xs, -1.0), InvalidArgument);
  EXPECT_THROW(percentile(xs, 101.0), InvalidArgument);
}

// The interpolation over fully sorted data that percentiles() must
// reproduce bit for bit: v[lo]·(1−frac) + v[hi]·frac on a sorted copy.
double sorted_reference(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs.front();
  const double pos = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

enum class Values { kDistinct, kHeavyTies, kAllEqual };
enum class Order { kShuffled, kSorted, kReversed };

std::vector<double> seeded_input(std::size_t n, Values values, Order order,
                                 std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) {
    switch (values) {
      case Values::kDistinct: x = 100.0 + rng.next_double() * 300.0; break;
      case Values::kHeavyTies:
        x = 0.25 * static_cast<double>(rng.next_below(4));
        break;
      case Values::kAllEqual: x = 3.7; break;
    }
  }
  if (order == Order::kSorted) std::sort(xs.begin(), xs.end());
  if (order == Order::kReversed) std::sort(xs.begin(), xs.end(), std::greater<>());
  return xs;
}

TEST(Percentiles, SelectionMatchesSortedInterpolationBitForBit) {
  const std::vector<double> ps{0.0, 50.0, 95.0, 99.0, 100.0};
  std::uint64_t seed = 1;
  for (const std::size_t n : {1u, 2u, 3u, 1000u, 100000u}) {
    for (const Values values : {Values::kDistinct, Values::kHeavyTies, Values::kAllEqual}) {
      for (const Order order : {Order::kShuffled, Order::kSorted, Order::kReversed}) {
        const auto input = seeded_input(n, values, order, ++seed);
        auto work = input;
        std::vector<double> out(ps.size());
        percentiles(work, ps, out);
        for (std::size_t k = 0; k < ps.size(); ++k) {
          SCOPED_TRACE(::testing::Message()
                       << "n=" << n << " values=" << static_cast<int>(values)
                       << " order=" << static_cast<int>(order) << " p=" << ps[k]);
          EXPECT_EQ(bits(out[k]), bits(sorted_reference(input, ps[k])));
          EXPECT_EQ(bits(percentile(input, ps[k])), bits(out[k]));
        }
        // Selection only permutes the data.
        std::sort(work.begin(), work.end());
        auto sorted_input = input;
        std::sort(sorted_input.begin(), sorted_input.end());
        EXPECT_EQ(work, sorted_input);
      }
    }
  }
}

TEST(Percentiles, RepeatedAndInteriorQuantilesMatchReference) {
  const auto input = seeded_input(777, Values::kDistinct, Order::kShuffled, 99);
  const std::vector<double> ps{1.0, 1.0, 33.3, 66.7, 66.7, 99.9};
  auto work = input;
  std::vector<double> out(ps.size());
  percentiles(work, ps, out);
  for (std::size_t k = 0; k < ps.size(); ++k) {
    EXPECT_EQ(bits(out[k]), bits(sorted_reference(input, ps[k]))) << "p=" << ps[k];
  }
}

TEST(Percentiles, RejectsEmptyOutOfRangeAndDescending) {
  std::vector<double> xs{1.0, 2.0, 3.0};
  std::vector<double> out(2);
  const std::vector<double> ok{50.0, 95.0};
  EXPECT_THROW(percentiles({}, ok, out), InvalidArgument);
  const std::vector<double> below{-1.0, 50.0};
  EXPECT_THROW(percentiles(xs, below, out), InvalidArgument);
  const std::vector<double> above{50.0, 100.5};
  EXPECT_THROW(percentiles(xs, above, out), InvalidArgument);
  const std::vector<double> nan{std::numeric_limits<double>::quiet_NaN(), 50.0};
  EXPECT_THROW(percentiles(xs, nan, out), InvalidArgument);
  const std::vector<double> descending{95.0, 50.0};
  EXPECT_THROW(percentiles(xs, descending, out), InvalidArgument);
  std::vector<double> short_out(1);
  EXPECT_THROW(percentiles(xs, ok, short_out), InvalidArgument);
  // A rejected call leaves the data untouched.
  EXPECT_EQ(xs, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Pearson, PerfectLinearCorrelation) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> ys{2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg{8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson_correlation(xs, neg), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesGivesZero) {
  const std::vector<double> xs{1.0, 2.0, 3.0};
  const std::vector<double> ys{5.0, 5.0, 5.0};
  EXPECT_EQ(pearson_correlation(xs, ys), 0.0);
}

TEST(Pearson, RejectsLengthMismatch) {
  const std::vector<double> xs{1.0, 2.0};
  const std::vector<double> ys{1.0};
  EXPECT_THROW(pearson_correlation(xs, ys), InvalidArgument);
}

TEST(Spearman, MonotoneNonlinearIsPerfect) {
  // Spearman sees through monotone transforms where Pearson does not.
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> ys{1.0, 8.0, 27.0, 64.0, 125.0};
  EXPECT_NEAR(spearman_correlation(xs, ys), 1.0, 1e-12);
  EXPECT_LT(pearson_correlation(xs, ys), 1.0);
}

TEST(Spearman, TiesUseAverageRanks) {
  const std::vector<double> xs{1.0, 2.0, 2.0, 3.0};
  const auto ranks = fractional_ranks(xs);
  EXPECT_EQ(ranks[0], 1.0);
  EXPECT_EQ(ranks[1], 2.5);
  EXPECT_EQ(ranks[2], 2.5);
  EXPECT_EQ(ranks[3], 4.0);
}

TEST(GeometricMean, KnownValue) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_NEAR(geometric_mean(xs), 4.0, 1e-12);
}

TEST(GeometricMean, RejectsNonPositive) {
  const std::vector<double> xs{1.0, 0.0};
  EXPECT_THROW(geometric_mean(xs), InvalidArgument);
}

TEST(GeometricMean, EmptyIsZero) { EXPECT_EQ(geometric_mean({}), 0.0); }

TEST(Ci95, ShrinksWithSampleSize) {
  Rng rng(3);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 100; ++i) small.add(rng.next_double());
  for (int i = 0; i < 10000; ++i) large.add(rng.next_double());
  EXPECT_GT(ci95_halfwidth(small), ci95_halfwidth(large));
  RunningStats one;
  one.add(1.0);
  EXPECT_EQ(ci95_halfwidth(one), 0.0);
}

TEST(BatchHelpers, EmptySpansAreSafe) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(stddev({}), 0.0);
}

}  // namespace
}  // namespace rts
