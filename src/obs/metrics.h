// Deterministic metrics registry: Counter / Gauge / Histogram, owned per
// World (or per shard) by an obs::Registry.
//
// The paper's whole argument is about where time goes — which probes wait,
// for how long, which pipeline stage discards what — so the engine exposes
// those quantities as first-class metrics instead of ad-hoc member
// counters duplicated by every bench. Design rules:
//
//   * No global mutable state. A Registry belongs to one World/shard and
//     is single-threaded like the simulator itself; the ShardRunner merges
//     per-shard registries in shard order, so `--jobs N` output is
//     byte-identical to `--jobs 1`.
//   * Everything deterministic is integer-valued. Histograms bucket in
//     integer microseconds and keep an integer microsecond sum, so merge
//     is exact element-wise addition — associative and reproducible.
//   * Wall-clock measurements (thread-pool task latency and friends) are
//     named "wall.*" and excluded from the deterministic JSON dump; they
//     must never enter byte-compared output. turtlint rule D2
//     additionally bans wall-clock reads inside src/obs itself.
//   * Metric handles are stable references into the registry (map nodes
//     never move), so hot paths increment through a pointer with no name
//     lookup. Components fall back to a private local metric when built
//     without a registry, keeping increments unconditional and branch-free.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>

#include "util/check.h"
#include "util/sim_time.h"

namespace turtle::obs {

/// Monotonically increasing event count. Merge = sum.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  void merge_from(const Counter& other) { value_ += other.value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-set (or high-water) level. Merge = max, which is what every gauge
/// in the repo measures (queue depth high-water marks); use a Counter for
/// anything that should sum across shards.
class Gauge {
 public:
  void set(std::int64_t v) { value_ = v; }
  void set_max(std::int64_t v) {
    if (v > value_) value_ = v;
  }
  [[nodiscard]] std::int64_t value() const { return value_; }
  void merge_from(const Gauge& other) { set_max(other.value_); }

 private:
  std::int64_t value_ = 0;
};

/// Fixed-bucket latency histogram. Buckets are log-spaced (1-2-5 series)
/// from 1 µs to 120 s plus an overflow bucket, so the ≥ 5 s delayed-
/// response tail the paper cares about is first-class: 5 s is an exact
/// bucket boundary, and everything a survey timeout would have discarded
/// lands cleanly to its right. Bucket semantics are `le` (value ≤ bound),
/// matching Prometheus. Merge = element-wise sum, exact in integers.
class Histogram {
 public:
  static constexpr std::array<std::int64_t, 26> kBucketBoundsUs = {
      1,          2,          5,          10,         20,         50,
      100,        200,        500,        1'000,      2'000,      5'000,
      10'000,     20'000,     50'000,     100'000,    200'000,    500'000,
      1'000'000,  2'000'000,  5'000'000,  10'000'000, 20'000'000, 50'000'000,
      100'000'000, 120'000'000};
  /// Bucket count including the final > 120 s overflow bucket.
  static constexpr std::size_t kNumBuckets = kBucketBoundsUs.size() + 1;

  /// Index of the bucket an observation of `us` lands in: the first bound
  /// >= us (le semantics); past the last bound = the overflow bucket.
  /// Public so exemplars can pin a traced request to the exact bucket its
  /// latency observation filled.
  [[nodiscard]] static std::size_t bucket_for_us(std::int64_t us) {
    std::size_t lo = 0, hi = kBucketBoundsUs.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (kBucketBoundsUs[mid] < us) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void observe(SimTime t) { observe_us(t.as_micros()); }

  void observe_us(std::int64_t us) {
    TURTLE_DCHECK_GE(us, 0) << "negative duration observed";
    ++buckets_[bucket_for_us(us)];
    ++count_;
    sum_us_ += us;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum_us() const { return sum_us_; }
  /// Samples in bucket `i` (see kBucketBoundsUs; i == kNumBuckets-1 is
  /// the > 120 s overflow bucket).
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    TURTLE_DCHECK_LT(i, kNumBuckets);
    return buckets_[i];
  }

  void merge_from(const Histogram& other) {
    for (std::size_t i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_us_ += other.sum_us_;
  }

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_us_ = 0;
};

/// Owns every metric of one World/shard. Creation is idempotent (same
/// name returns the same object); names are namespaced with dots
/// ("survey.rtt", "pipeline.naive.packets") and must not collide across
/// metric kinds. Not thread-safe — one Registry per shard, merged on the
/// coordinating thread.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Merges every metric of `other` into this registry, creating missing
  /// ones. All merge operations are commutative and associative, so a
  /// shard-ordered merge is byte-identical for any --jobs value.
  void merge_from(const Registry& other);

  /// True for "wall.*" names: wall-clock measurements that are excluded
  /// from deterministic output.
  [[nodiscard]] static bool is_wall_clock(std::string_view name) {
    return name.rfind("wall.", 0) == 0;
  }

  /// Writes the registry as a JSON object (keys sorted, fixed layout).
  /// With include_wall_clock = false (the default) "wall.*" metrics are
  /// skipped, making the dump byte-comparable across runs and --jobs.
  void write_json(std::ostream& os, bool include_wall_clock = false) const;
  [[nodiscard]] std::string to_json(bool include_wall_clock = false) const;

  [[nodiscard]] const std::map<std::string, Counter, std::less<>>& counters() const {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Gauge, std::less<>>& gauges() const {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram, std::less<>>& histograms() const {
    return histograms_;
  }

 private:
  void check_new_name(std::string_view name) const;

  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, Histogram, std::less<>> histograms_;
};

class ExemplarStore;  // obs/exemplar.h
struct FlightData;    // obs/flight.h

/// Prometheus text exposition format (histograms as cumulative `le`
/// buckets in seconds), for future live runners. Includes wall.* metrics:
/// a scrape is a wall-clock artifact anyway.
///
/// With `exemplars`, histogram bucket lines carry OpenMetrics-style
/// exemplar suffixes (`# {trace_id="N"} <value_s> <ts_s>`) linking the
/// bucket to a concrete traced request. With `flight`, the last closed
/// window's counter deltas and histogram slice totals are additionally
/// exposed as turtle_window_* gauges — the "what is happening right now"
/// view a live scrape wants next to the cumulative series.
void write_prometheus(std::ostream& os, const Registry& registry,
                      const ExemplarStore* exemplars = nullptr,
                      const FlightData* flight = nullptr);

}  // namespace turtle::obs
