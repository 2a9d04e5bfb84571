#include "service/service_stats.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"
#include "util/json_writer.hpp"
#include "util/stats.hpp"

namespace rts {

namespace {
// Fixed seed for the reservoir's replacement stream: snapshots are a
// deterministic function of the recorded latency sequence, so repeated runs
// of the same workload report identical quantile estimates.
constexpr std::uint64_t kReservoirSeed = 0x5eed1a7e9c0ffeeull;
}  // namespace

LatencyRecorder::LatencyRecorder(std::size_t capacity)
    : capacity_(capacity), rng_(kReservoirSeed) {
  RTS_REQUIRE(capacity >= 1, "latency reservoir needs capacity >= 1");
  samples_.reserve(capacity);
}

void LatencyRecorder::record(double latency_ms) {
  const LockGuard lock(mutex_);
  max_ = count_ == 0 ? latency_ms : std::max(max_, latency_ms);
  ++count_;
  if (samples_.size() < capacity_) {
    samples_.push_back(latency_ms);
    return;
  }
  // Algorithm R: sample i (1-based) replaces a reservoir slot with
  // probability capacity/i, keeping every prefix uniformly represented.
  const std::uint64_t slot = rng_.next_below(count_);
  if (slot < capacity_) {
    samples_[static_cast<std::size_t>(slot)] = latency_ms;
  }
}

LatencyRecorder::Quantiles LatencyRecorder::snapshot() const {
  std::vector<double> copy;
  double max = 0.0;
  std::uint64_t count = 0;
  {
    const LockGuard lock(mutex_);
    copy = samples_;
    max = max_;
    count = count_;
  }
  Quantiles q;
  if (count == 0) return q;
  constexpr std::array<double, 2> kQuantiles{50.0, 95.0};
  std::array<double, 2> quantiles{};
  percentiles(copy, kQuantiles, quantiles);
  q.p50 = quantiles[0];
  q.p95 = quantiles[1];
  q.max = max;
  return q;
}

std::uint64_t LatencyRecorder::count() const {
  const LockGuard lock(mutex_);
  return count_;
}

std::string service_stats_to_json(const ServiceStats& s) {
  return JsonWriter()
      .begin_object()
      .field("submitted", s.submitted)
      .field("rejected", s.rejected)
      .field("quota_rejected", s.quota_rejected)
      .field("completed", s.completed)
      .field("failed", s.failed)
      .field("hits", s.hits)
      .field("solved", s.solved)
      .field("coalesced", s.coalesced)
      .field("queue_depth", s.queue_depth)
      .field("in_flight", s.in_flight)
      .field("workers", s.workers)
      .field("p50_latency_ms", s.p50_latency_ms)
      .field("p95_latency_ms", s.p95_latency_ms)
      .field("max_latency_ms", s.max_latency_ms)
      .field("cache_hits", s.cache.hits)
      .field("cache_misses", s.cache.misses)
      .field("cache_evictions", s.cache.evictions)
      .field("cache_entries", s.cache.entries)
      .field("cache_hit_rate", s.cache.hit_rate())
      .end_object()
      .take();
}

}  // namespace rts
