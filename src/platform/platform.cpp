#include "platform/platform.hpp"

#include <limits>

#include "util/distributions.hpp"
#include "util/error.hpp"

namespace rts {

Platform::Platform(std::size_t proc_count, double rate)
    : rates_(proc_count, proc_count, rate) {
  RTS_REQUIRE(proc_count > 0, "platform needs at least one processor");
  RTS_REQUIRE(rate > 0.0, "transfer rate must be positive");
  for (std::size_t p = 0; p < proc_count; ++p) {
    rates_(p, p) = std::numeric_limits<double>::infinity();
  }
}

void Platform::check_pair(ProcId from, ProcId to) const {
  RTS_REQUIRE(from.valid() && from.index() < proc_count(),
              "source processor id out of range");
  RTS_REQUIRE(to.valid() && to.index() < proc_count(),
              "target processor id out of range");
}

double Platform::transfer_rate(ProcId from, ProcId to) const {
  check_pair(from, to);
  return rates_(from.index(), to.index());
}

void Platform::set_transfer_rate(ProcId from, ProcId to, double rate) {
  check_pair(from, to);
  RTS_REQUIRE(from != to, "intra-processor rate is fixed (communication is free)");
  RTS_REQUIRE(rate > 0.0, "transfer rate must be positive");
  rates_(from.index(), to.index()) = rate;
}

void Platform::set_symmetric_rate(ProcId a, ProcId b, double rate) {
  set_transfer_rate(a, b, rate);
  set_transfer_rate(b, a, rate);
}

double Platform::comm_cost(double data, ProcId from, ProcId to) const {
  check_pair(from, to);
  RTS_REQUIRE(data >= 0.0, "data size must be non-negative");
  return comm_cost_unchecked(data, from, to);
}

double Platform::average_transfer_rate() const {
  const std::size_t m = proc_count();
  if (m == 1) return std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = 0; q < m; ++q) {
      if (p != q) sum += rates_(p, q);
    }
  }
  return sum / static_cast<double>(m * (m - 1));
}

double Platform::average_comm_cost(double data) const {
  RTS_REQUIRE(data >= 0.0, "data size must be non-negative");
  const std::size_t m = proc_count();
  // rts-analyze: allow(no-float-eq) — zero data means no transfer, exactly.
  if (m == 1 || data == 0.0) return 0.0;
  // Average of data/rate over ordered pairs (harmonic in the rates), which is
  // the exact expectation of the cost over a uniformly random distinct pair.
  double sum = 0.0;
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = 0; q < m; ++q) {
      if (p != q) sum += data / rates_(p, q);
    }
  }
  return sum / static_cast<double>(m * (m - 1));
}

Platform Platform::random_symmetric(std::size_t proc_count, double lo, double hi, Rng& rng) {
  RTS_REQUIRE(lo > 0.0 && lo <= hi, "rate range must be positive and ordered");
  Platform platform(proc_count);
  for (std::size_t a = 0; a < proc_count; ++a) {
    for (std::size_t b = a + 1; b < proc_count; ++b) {
      platform.set_symmetric_rate(static_cast<ProcId>(a), static_cast<ProcId>(b),
                                  sample_uniform(rng, lo, hi));
    }
  }
  return platform;
}

}  // namespace rts
