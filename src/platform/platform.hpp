#pragma once
// Heterogeneous multiprocessor system model (paper Section 3.1): m fully
// connected processors, per-pair data transfer rates TR (m x m), contention-
// free communication overlapped with computation, zero intra-processor cost.

#include <cstdint>

#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/strong_id.hpp"

namespace rts {

/// Fully connected heterogeneous platform with pairwise transfer rates.
class Platform {
 public:
  /// Platform with `proc_count` processors, all pairwise rates set to
  /// `rate` (data units per time unit).
  explicit Platform(std::size_t proc_count, double rate = 1.0);

  [[nodiscard]] std::size_t proc_count() const noexcept { return rates_.rows(); }

  /// Transfer rate between two distinct processors. The diagonal is not
  /// meaningful (intra-processor communication is free) and reads as +inf.
  [[nodiscard]] double transfer_rate(ProcId from, ProcId to) const;

  /// Set the rate of the (from, to) link; must be positive, from != to.
  void set_transfer_rate(ProcId from, ProcId to, double rate);

  /// Set both directions of a link.
  void set_symmetric_rate(ProcId a, ProcId b, double rate);

  /// Communication cost of shipping `data` units from `from` to `to`:
  /// 0 when from == to or data == 0, otherwise data / rate (Section 3.1).
  [[nodiscard]] double comm_cost(double data, ProcId from, ProcId to) const;

  /// comm_cost without the range and sign checks, for hot loops that
  /// validated both processors and the data size up front. The one home of
  /// the same-processor / zero-data rule; comm_cost delegates here.
  [[nodiscard]] double comm_cost_unchecked(double data, ProcId from,
                                           ProcId to) const noexcept {
    // rts-analyze: allow(no-float-eq) — zero data means no transfer, exactly.
    if (from == to || data == 0.0) return 0.0;
    return data / rates_(from.index(), to.index());
  }

  /// Mean rate over all ordered off-diagonal pairs; used by HEFT's rank
  /// computation and by generators calibrating CCR. For m == 1 returns +inf
  /// (no inter-processor link exists, communication never happens).
  [[nodiscard]] double average_transfer_rate() const;

  /// Mean communication cost of `data` units over all ordered distinct
  /// processor pairs (the \bar{c} term of HEFT's upward rank).
  [[nodiscard]] double average_comm_cost(double data) const;

  /// Platform whose link rates are drawn uniformly from [lo, hi]
  /// (symmetric links). Models heterogeneous interconnects in tests/benches.
  static Platform random_symmetric(std::size_t proc_count, double lo, double hi, Rng& rng);

  bool operator==(const Platform&) const = default;

 private:
  void check_pair(ProcId from, ProcId to) const;

  Matrix<double> rates_;
};

}  // namespace rts
