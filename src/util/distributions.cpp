#include "util/distributions.hpp"

#include <cmath>

#include "util/error.hpp"

namespace rts {

double sample_uniform(Rng& rng, double lo, double hi) {
  RTS_REQUIRE(lo <= hi, "uniform bounds out of order");
  return lo + (hi - lo) * rng.next_double();
}

std::int64_t sample_uniform_int(Rng& rng, std::int64_t lo, std::int64_t hi) {
  RTS_REQUIRE(lo <= hi, "integer range out of order");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1u;
  return lo + static_cast<std::int64_t>(rng.next_below(span));
}

double sample_standard_normal(Rng& rng) {
  // Polar method: rejection-sample a point in the unit disk, then transform.
  // No trig calls and exactly reproducible given the Rng stream.
  for (;;) {
    const double u = 2.0 * rng.next_double() - 1.0;
    const double v = 2.0 * rng.next_double() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double sample_normal(Rng& rng, double mu, double sigma) {
  RTS_REQUIRE(sigma >= 0.0, "negative standard deviation");
  return mu + sigma * sample_standard_normal(rng);
}

namespace {
// Marsaglia & Tsang for shape >= 1.
double gamma_core(Rng& rng, double shape) {
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = sample_standard_normal(rng);
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = rng.next_double();
    const double x2 = x * x;
    if (u < 1.0 - 0.0331 * x2 * x2) return d * v;
    if (u > 0.0 && std::log(u) < 0.5 * x2 + d * (1.0 - v + std::log(v))) return d * v;
  }
}
}  // namespace

double sample_gamma(Rng& rng, double shape, double scale) {
  RTS_REQUIRE(shape > 0.0, "gamma shape must be positive");
  RTS_REQUIRE(scale > 0.0, "gamma scale must be positive");
  if (shape >= 1.0) return scale * gamma_core(rng, shape);
  // Boost: Gamma(k) = Gamma(k+1) * U^(1/k) for k < 1.
  const double g = gamma_core(rng, shape + 1.0);
  double u = rng.next_double();
  // rts-analyze: allow(no-float-eq) — exact-zero guard before log/pow.
  while (u == 0.0) u = rng.next_double();
  return scale * g * std::pow(u, 1.0 / shape);
}

double sample_exponential(Rng& rng, double lambda) {
  RTS_REQUIRE(lambda > 0.0, "exponential rate must be positive");
  double u = rng.next_double();
  // rts-analyze: allow(no-float-eq) — exact-zero guard before log/pow.
  while (u == 0.0) u = rng.next_double();
  return -std::log(u) / lambda;
}

bool sample_bernoulli(Rng& rng, double p) {
  RTS_REQUIRE(p >= 0.0 && p <= 1.0, "Bernoulli probability outside [0,1]");
  return rng.next_double() < p;
}

double sample_gamma_mean_cov(Rng& rng, double mean, double cov) {
  RTS_REQUIRE(mean > 0.0, "gamma mean must be positive");
  RTS_REQUIRE(cov >= 0.0, "coefficient of variation must be non-negative");
  // rts-analyze: allow(no-float-eq) — cov==0 selects the degenerate case.
  if (cov == 0.0) return mean;
  const double shape = 1.0 / (cov * cov);
  const double scale = mean * cov * cov;
  return sample_gamma(rng, shape, scale);
}

}  // namespace rts
